package obs

import "sync"

// Broadcaster fans pre-formatted Server-Sent-Events frames out to any
// number of subscribers. It is the live side of the telemetry layer: the
// span recorder's sink publishes each finished span as an "event: span"
// frame, and obshttp streams the frames to each /events client, so
// `curl -N /events` follows a run in real time.
//
// Delivery is best-effort by design: Publish never blocks the pipeline.
// Each client has a bounded buffer; when a client falls behind, frames are
// dropped for that client (counted in Dropped) rather than stalling the
// run. A nil Broadcaster ignores every call, and Publish with no clients
// connected returns without allocating, so always-on instrumentation is
// free until somebody is actually listening.
type Broadcaster struct {
	mu      sync.Mutex
	clients map[chan []byte]struct{}
	closed  bool
	dropped uint64
}

// clientBuf is the per-client frame buffer; a burst larger than this drops
// frames for that client only.
const clientBuf = 256

// NewBroadcaster returns an empty broadcaster.
func NewBroadcaster() *Broadcaster {
	return &Broadcaster{clients: make(map[chan []byte]struct{})}
}

// Publish sends one SSE frame ("event: <event>\ndata: <data>\n\n") to every
// connected client. data must be a single line (the JSON encodings used by
// the span recorder are). The frame is built once and shared;
// clients must treat received slices as read-only.
func (b *Broadcaster) Publish(event string, data []byte) {
	if b == nil {
		return
	}
	b.mu.Lock()
	if b.closed || len(b.clients) == 0 {
		b.mu.Unlock()
		return
	}
	frame := make([]byte, 0, len(event)+len(data)+16)
	frame = append(frame, "event: "...)
	frame = append(frame, event...)
	frame = append(frame, "\ndata: "...)
	frame = append(frame, data...)
	frame = append(frame, "\n\n"...)
	for ch := range b.clients {
		select {
		case ch <- frame:
		default:
			b.dropped++
		}
	}
	b.mu.Unlock()
}

// Subscribe registers a client and returns its frame channel plus a cancel
// function. The channel is closed by cancel or by Close. Subscribing to a
// closed (or nil) broadcaster yields an already-closed channel.
func (b *Broadcaster) Subscribe() (<-chan []byte, func()) {
	ch := make(chan []byte, clientBuf)
	if b == nil {
		close(ch)
		return ch, func() {}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		close(ch)
		return ch, func() {}
	}
	b.clients[ch] = struct{}{}
	cancel := func() {
		b.mu.Lock()
		if _, ok := b.clients[ch]; ok {
			delete(b.clients, ch)
			close(ch)
		}
		b.mu.Unlock()
	}
	return ch, cancel
}

// Dropped returns how many frames were discarded for slow clients.
func (b *Broadcaster) Dropped() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped
}

// Clients returns the number of connected clients.
func (b *Broadcaster) Clients() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.clients)
}

// Close disconnects every client and makes further Publish/Subscribe calls
// inert. It is idempotent.
func (b *Broadcaster) Close() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for ch := range b.clients {
		close(ch)
	}
	b.clients = make(map[chan []byte]struct{})
}
