package obshttp

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"masc/internal/obs"
	"masc/internal/obs/span"
)

func TestServeEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("test_requests_total", "Test counter.").Add(5)
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	code, body := get("/metrics")
	if code != 200 || !strings.Contains(body, "test_requests_total 5") {
		t.Fatalf("/metrics = %d:\n%s", code, body)
	}
	resp, err := http.Get("http://" + srv.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	resp.Body.Close()

	code, body = get("/debug/vars")
	if code != 200 {
		t.Fatalf("/debug/vars = %d", code)
	}
	var vars map[string]any
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if _, ok := vars["masc_metrics"]; !ok {
		t.Fatal("/debug/vars missing masc_metrics")
	}

	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/ = %d", code)
	}
	if code, _ := get("/nope"); code != 404 {
		t.Fatalf("unknown path = %d, want 404", code)
	}
	if code, body := get("/"); code != 200 || !strings.Contains(body, "/metrics") {
		t.Fatalf("root help = %d: %s", code, body)
	}
}

func TestServeObserverEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("masc_test_total", "test counter").Add(1)
	rec := span.NewRecorder(64)
	sp := rec.Start(0, span.Run, -1)
	child := rec.Start(sp.ID(), span.Step, 0)
	child.End()
	sp.End()
	b := obs.NewBroadcaster()
	ob := &obs.Observer{Reg: reg, Spans: rec, Events: b}

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

// TestDebugVarsPerServer runs two servers at once in one process, each on
// its own registry: each one's /debug/vars must show its own registry under
// masc_metrics and not the other's, beside the process-wide expvar vars.
func TestDebugVarsPerServer(t *testing.T) {
	serve := func(family string) *Server {
		reg := obs.NewRegistry()
		reg.Counter(family, "test counter").Add(1)
		srv, err := Serve("127.0.0.1:0", reg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return srv
	}
	vars := func(srv *Server) map[string]map[string]any {
		resp, err := http.Get("http://" + srv.Addr + "/debug/vars")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Fatalf("content type %q", ct)
		}
		var doc map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatalf("/debug/vars is not JSON: %v", err)
		}
		for _, k := range []string{"cmdline", "memstats"} {
			if _, ok := doc[k]; !ok {
				t.Errorf("/debug/vars missing the standard var %q", k)
			}
		}
		var m map[string]map[string]any
		if err := json.Unmarshal(doc["masc_metrics"], &m); err != nil {
			t.Fatalf("masc_metrics: %v", err)
		}
		return m
	}
	srvA, srvB := serve("only_in_a_total"), serve("only_in_b_total")
	for _, c := range []struct {
		name      string
		srv       *Server
		own, peer string
	}{
		{"A", srvA, "only_in_a_total", "only_in_b_total"},
		{"B", srvB, "only_in_b_total", "only_in_a_total"},
	} {
		m := vars(c.srv)
		if _, ok := m[c.own]; !ok {
			t.Errorf("server %s's /debug/vars lacks its own %s: %v", c.name, c.own, m)
		}
		if _, ok := m[c.peer]; ok {
			t.Errorf("server %s's /debug/vars shows the other registry's %s", c.name, c.peer)
		}
	}
}
