package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestBroadcasterNilSafe(t *testing.T) {
	var b *Broadcaster
	b.Publish("span", []byte(`{}`))
	ch, cancel := b.Subscribe()
	cancel()
	if _, ok := <-ch; ok {
		t.Fatal("nil broadcaster channel not closed")
	}
	b.Close()
	if b.Dropped() != 0 || b.Clients() != 0 {
		t.Fatal("nil broadcaster leaked state")
	}
}

func TestBroadcasterDelivery(t *testing.T) {
	b := NewBroadcaster()
	ch, cancel := b.Subscribe()
	defer cancel()
	b.Publish("span", []byte(`{"id":1}`))
	select {
	case frame := <-ch:
		want := "event: span\ndata: {\"id\":1}\n\n"
		if string(frame) != want {
			t.Fatalf("frame = %q, want %q", frame, want)
		}
	case <-time.After(time.Second):
		t.Fatal("no frame delivered")
	}
}

func TestBroadcasterSlowClientDropsFrames(t *testing.T) {
	b := NewBroadcaster()
	_, cancel := b.Subscribe() // never read
	defer cancel()
	for i := 0; i < clientBuf+10; i++ {
		b.Publish("span", []byte(`{}`))
	}
	if got := b.Dropped(); got != 10 {
		t.Fatalf("dropped = %d, want 10", got)
	}
}

func TestBroadcasterCloseIdempotent(t *testing.T) {
	b := NewBroadcaster()
	ch, cancel := b.Subscribe()
	b.Close()
	b.Close()
	if _, ok := <-ch; ok {
		t.Fatal("channel not closed by Close")
	}
	cancel() // after Close: must not panic or double-close
	if ch2, _ := b.Subscribe(); func() bool { _, ok := <-ch2; return ok }() {
		t.Fatal("subscribe after close returned open channel")
	}
	b.Publish("span", []byte(`{}`)) // inert
}

// TestBroadcasterChurnRace hammers the broadcaster from concurrent
// publishers while clients connect, read a little and disconnect mid-run.
// Run under -race this is the SSE thread-safety gate required by the
// span-layer test plan.
func TestBroadcasterChurnRace(t *testing.T) {
	b := NewBroadcaster()
	stop := make(chan struct{})
	var wg sync.WaitGroup

	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			payload := []byte(fmt.Sprintf(`{"producer":%d}`, p))
			for {
				select {
				case <-stop:
					return
				default:
					b.Publish("span", payload)
				}
			}
		}(p)
	}

	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ch, cancel := b.Subscribe()
				for j := 0; j < 5; j++ {
					select {
					case _, ok := <-ch:
						if !ok {
							cancel()
							return
						}
					case <-time.After(10 * time.Millisecond):
					}
				}
				cancel()
			}
		}()
	}

	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	b.Close()
}
