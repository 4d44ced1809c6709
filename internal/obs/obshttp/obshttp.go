// Package obshttp serves an obs.Observer over HTTP: /metrics (Prometheus
// text), /debug/vars (expvar JSON), /debug/pprof (profiling), /debug/spans
// (span-tree JSON) and /events (SSE live stream).
//
// It is the only package that links net/http, net/http/pprof and expvar,
// and only the commands import it. A process that runs a simulation without
// serving telemetry — the library, the examples, the benchmark — therefore
// carries none of the HTTP, TLS and pprof code or their init work.
package obshttp

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"masc/internal/obs"
	"masc/internal/obs/span"
)

// Server is the telemetry HTTP endpoint: /metrics (Prometheus text),
// /debug/vars (expvar JSON), /debug/pprof (profiling) and — when served
// from a full Observer — /events (SSE live stream) and /debug/spans
// (span-tree JSON, ?format=chrome for a Chrome trace-event document).
type Server struct {
	// Addr is the bound address (useful with ":0" listen specs).
	Addr string
	srv  *http.Server
}

// Serve binds addr (host:port; ":0" picks a free port) and serves the
// registry's telemetry endpoints in a background goroutine until Close.
func Serve(addr string, reg *obs.Registry) (*Server, error) {
	return ServeObserver(addr, &obs.Observer{Reg: reg})
}

// ServeObserver is Serve for a full Observer: in addition to the registry
// endpoints it exposes the observer's span recorder on /debug/spans and its
// event broadcaster on /events when those are present.
func ServeObserver(addr string, ob *obs.Observer) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	reg := ob.Registry()
	mux := http.NewServeMux()
	mux.Handle("/metrics", MetricsHandler(reg))
	mux.Handle("/debug/vars", varsHandler(reg))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/spans", SpansHandler(ob.SpanRecorder()))
	mux.Handle("/events", eventsHandler(ob.Broadcaster()))
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "masc telemetry: /metrics /debug/vars /debug/pprof /debug/spans /events\n")
	})
	s := &Server{
		Addr: ln.Addr().String(),
		srv:  &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
	}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Close shuts the endpoint down.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}

// MetricsHandler returns the Prometheus text-format handler for reg.
func MetricsHandler(reg *obs.Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(reg.WritePrometheus(nil))
	})
}

// metricsVar is the /debug/vars key that holds the registry's Snapshot.
const metricsVar = "masc_metrics"

// varsHandler renders expvar's JSON document — the process-wide vars
// (cmdline, memstats) — with reg's Snapshot under metricsVar, in key order
// as expvar.Handler would. The snapshot is taken from this server's own
// registry on every request rather than published into expvar's global
// table, so two servers in one process each show their own metrics.
func varsHandler(reg *obs.Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		metrics, err := json.Marshal(reg.Snapshot())
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		sep, pending := "{\n", true
		emit := func(key, value string) {
			fmt.Fprintf(w, "%s%q: %s", sep, key, value)
			sep = ",\n"
		}
		expvar.Do(func(kv expvar.KeyValue) {
			if pending && kv.Key > metricsVar {
				emit(metricsVar, string(metrics))
				pending = false
			}
			emit(kv.Key, kv.Value.String())
		})
		if pending {
			emit(metricsVar, string(metrics))
		}
		io.WriteString(w, "\n}\n")
	})
}

// SpansHandler serves the recorder's retained spans. The default response
// is {"total":N,"dropped":N,"spans":[…]} with one object per span (the
// JSONL record schema); ?format=chrome returns a Chrome trace-event
// document loadable in Perfetto.
func SpansHandler(rec *span.Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		recs := rec.Snapshot()
		if r.URL.Query().Get("format") == "chrome" {
			w.Header().Set("Content-Type", "application/json")
			_ = span.WriteChromeTrace(w, recs)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		buf := make([]byte, 0, 256+128*len(recs))
		buf = append(buf, `{"total":`...)
		buf = strconv.AppendUint(buf, rec.Total(), 10)
		buf = append(buf, `,"dropped":`...)
		buf = strconv.AppendUint(buf, rec.Dropped(), 10)
		buf = append(buf, `,"spans":[`...)
		for i := range recs {
			if i > 0 {
				buf = append(buf, ',', '\n')
			}
			buf = span.AppendJSON(buf, &recs[i])
		}
		buf = append(buf, `]}`...)
		buf = append(buf, '\n')
		w.Write(buf)
	})
}

// eventsHandler is the /events SSE endpoint over b. It greets each client
// with a hello frame (so probes get bytes even on an idle run), then
// streams b's frames until the client disconnects or b closes. A nil b
// sends the hello frame and ends the stream.
func eventsHandler(b *obs.Broadcaster) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fl, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "streaming unsupported", http.StatusInternalServerError)
			return
		}
		h := w.Header()
		h.Set("Content-Type", "text/event-stream")
		h.Set("Cache-Control", "no-store")
		h.Set("X-Accel-Buffering", "no")
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, ": masc event stream\n\nevent: hello\ndata: {\"stream\":\"masc\",\"events\":[\"span\"]}\n\n")
		fl.Flush()
		if b == nil {
			return
		}
		ch, cancel := b.Subscribe()
		defer cancel()
		ctx := r.Context()
		for {
			select {
			case <-ctx.Done():
				return
			case frame, ok := <-ch:
				if !ok {
					return
				}
				if _, err := w.Write(frame); err != nil {
					return
				}
				fl.Flush()
			}
		}
	})
}
