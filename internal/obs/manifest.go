package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"masc/internal/atomicio"
)

// Manifest is the skeleton of a run manifest: one JSON document holding
// everything needed to compare a run against another run — the tool and
// configuration that produced it, the aggregate statistics of every
// pipeline layer, and an optional metrics snapshot. Sections is the
// tool-specific payload; values marshal with encoding/json, so integer
// counters and time.Duration fields (nanoseconds) round-trip bit-exactly.
type Manifest struct {
	Tool       string                    `json:"tool"`
	CreatedAt  time.Time                 `json:"created_at"`
	Host       string                    `json:"host,omitempty"`
	Provenance Provenance                `json:"provenance"`
	Config     map[string]any            `json:"config,omitempty"`
	Sections   map[string]any            `json:"sections,omitempty"`
	MetricSnap map[string]map[string]any `json:"metrics,omitempty"`
}

// NewManifest returns a manifest stamped with the tool name, hostname,
// current time and build/runtime provenance.
func NewManifest(tool string) *Manifest {
	host, _ := os.Hostname()
	return &Manifest{
		Tool:       tool,
		CreatedAt:  time.Now().UTC(),
		Host:       host,
		Provenance: CollectProvenance(),
		Config:     map[string]any{},
		Sections:   map[string]any{},
	}
}

// Section attaches a named payload (any json-marshalable value).
func (m *Manifest) Section(name string, v any) *Manifest {
	m.Sections[name] = v
	return m
}

// Set records one configuration key.
func (m *Manifest) Set(key string, v any) *Manifest {
	m.Config[key] = v
	return m
}

// AttachMetrics embeds a snapshot of reg (no-op when reg is nil).
func (m *Manifest) AttachMetrics(reg *Registry) *Manifest {
	if reg != nil {
		m.MetricSnap = reg.Snapshot()
	}
	return m
}

// Write serializes the manifest (indented JSON, trailing newline) to path.
// The provenance runtime snapshot is refreshed first so GC/heap counters
// describe the finished run rather than process startup. The write is
// atomic (temp file + fsync + rename): a crash mid-write leaves either the
// previous manifest or none, never a torn document.
func (m *Manifest) Write(path string) error {
	m.Provenance.refreshRuntime()
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return atomicio.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadManifest loads a manifest written by Write, rejecting torn or
// trailing-garbage documents: the file must be exactly one JSON object.
// Comparison tooling reads crash-site manifests through this, so a
// half-written document surfaces as an error instead of zeroed stats.
func ReadManifest(path string) (*Manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	m := &Manifest{}
	if err := dec.Decode(m); err != nil {
		return nil, fmt.Errorf("obs: manifest %s is torn or invalid: %w", path, err)
	}
	if t, err := dec.Token(); err == nil {
		return nil, fmt.Errorf("obs: manifest %s has trailing content after the document: %v", path, t)
	}
	return m, nil
}
