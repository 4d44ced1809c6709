package masc

import (
	"os/exec"
	"strings"
	"testing"
)

// goList runs `go list args...` in the module root and returns the package
// paths it prints.
func goList(t *testing.T, args ...string) []string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return strings.Fields(string(out))
}

// TestNoOrphanInternalPackages fails when an internal/ package is imported
// (transitively) by neither the facade nor a command: code that no
// experiment and no CLI can reach is deleted, not kept. Test-only helper
// packages are the one exception and are listed here by name.
func TestNoOrphanInternalPackages(t *testing.T) {
	testHelpers := map[string]bool{
		"masc/internal/compress/codectest": true,
	}
	reached := map[string]bool{}
	for _, p := range goList(t, "-deps", ".", "./cmd/...") {
		reached[p] = true
	}
	for _, p := range goList(t, "./internal/...") {
		if !reached[p] && !testHelpers[p] {
			t.Errorf("%s is reached by neither the masc package nor any cmd/: wire it in or delete it", p)
		}
	}
	for p := range testHelpers {
		if reached[p] {
			t.Errorf("%s is allow-listed as test-only but production code imports it", p)
		}
	}
}

// TestLibraryLinksNoNetworkStack fails when the facade or the workload
// catalogue links networking. Serving telemetry over HTTP is
// internal/obs/obshttp's job alone and only the commands import it, so a
// process that runs a simulation without serving — an example, the
// benchmark — neither maps the HTTP, TLS and pprof code nor runs its inits.
func TestLibraryLinksNoNetworkStack(t *testing.T) {
	banned := map[string]bool{
		"net": true, "net/http": true, "net/http/pprof": true, "expvar": true, "crypto/tls": true,
	}
	for _, p := range goList(t, "-deps", ".", "./internal/workload") {
		if banned[p] {
			t.Errorf("the masc package or internal/workload links %s", p)
		}
	}
	const server = "masc/internal/obs/obshttp"
	for _, edge := range goList(t, "-f", `{{range .Imports}}{{$.ImportPath}}>{{.}} {{end}}`, "./...") {
		from, to, _ := strings.Cut(edge, ">")
		if to == server && !strings.HasPrefix(from, "masc/cmd/") {
			t.Errorf("%s imports %s: only the commands may serve telemetry", from, server)
		}
	}
}

// TestSweepLinksNoStore fails when the reverse sweep or the workload
// catalogue links the Jacobian stores. The sweep reads a store through what
// it declares itself — a fetch error that answers Degradable() and a source
// that can Repair a step — so a caller that sweeps a recompute source, or
// only builds circuits, does not link the codecs and the chain. The sweep
// shards on internal/workpool, the pool the codecs share, and links no
// codec package either.
func TestSweepLinksNoStore(t *testing.T) {
	for _, p := range goList(t, "-deps", "./internal/workload", "./internal/adjoint") {
		if p == "masc/internal/jactensor" {
			t.Errorf("internal/workload or internal/adjoint links %s", p)
		}
	}
	for _, p := range goList(t, "-deps", "./internal/adjoint") {
		if strings.HasPrefix(p, "masc/internal/compress/") || p == "masc/internal/compress" {
			t.Errorf("internal/adjoint links %s", p)
		}
	}
}
