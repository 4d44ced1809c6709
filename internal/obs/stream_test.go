package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"masc/internal/obs/span"
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

func TestServeObserverEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("masc_test_total", "test counter").Add(1)
	rec := span.NewRecorder(64)
	sp := rec.Start(0, span.Run, -1)
	child := rec.Start(sp.ID(), span.Step, 0)
	child.End()
	sp.End()
	b := NewBroadcaster()
	ob := &Observer{Reg: reg, Spans: rec, Events: b}

	srv, err := ServeObserver("127.0.0.1:0", ob)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return buf.String()
	}

	spans := get("/debug/spans")
	if !strings.Contains(spans, `"total":2`) || !strings.Contains(spans, `"kind":"run"`) {
		t.Fatalf("/debug/spans = %s", spans)
	}
	chrome := get("/debug/spans?format=chrome")
	if !strings.Contains(chrome, `"traceEvents"`) || !strings.Contains(chrome, `"name":"step"`) {
		t.Fatalf("chrome export = %s", chrome)
	}

	// /events: read the hello frame, then a published frame, then hang up.
	resp, err := http.Get("http://" + srv.Addr + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type = %q", ct)
	}
	br := bufio.NewReader(resp.Body)
	readFrame := func() string {
		var sb strings.Builder
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				t.Fatalf("read frame: %v (so far %q)", err, sb.String())
			}
			sb.WriteString(line)
			if line == "\n" && sb.Len() > 1 {
				return sb.String()
			}
		}
	}
	// The stream opens with a comment block then the hello frame.
	hello := readFrame()
	if !strings.Contains(hello, "event: hello") {
		hello = readFrame()
	}
	if !strings.Contains(hello, "event: hello") {
		t.Fatalf("no hello frame, got %q", hello)
	}
	// Wait for the subscription to land before publishing.
	for i := 0; i < 100 && b.Clients() == 0; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	b.Publish("span", []byte(`{"id":9}`))
	if f := readFrame(); !strings.Contains(f, `data: {"id":9}`) {
		t.Fatalf("event frame %q", f)
	}
}
