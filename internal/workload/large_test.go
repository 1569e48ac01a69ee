package workload

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/plus"
)

func collectLarge(t *testing.T, cfg LargeConfig) []plus.Batch {
	t.Helper()
	var got []plus.Batch
	if err := GenerateLarge(cfg, func(b plus.Batch) error {
		got = append(got, b)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestGenerateLarge(t *testing.T) {
	cfg := LargeConfig{Nodes: 2000, Seed: 7, BatchSize: 512}
	batches := collectLarge(t, cfg)

	objects, edges, surrogates := 0, 0, 0
	names := map[string]bool{}
	for i, b := range batches {
		if len(b.Objects) > 512 {
			t.Fatalf("batch %d carries %d objects, want <= 512", i, len(b.Objects))
		}
		objects += len(b.Objects)
		edges += len(b.Edges)
		surrogates += len(b.Surrogates)
		for _, o := range b.Objects {
			names[o.Name] = true
			if o.Features["owner"] == "" || o.Features["stage"] == "" || o.Features["batch"] == "" {
				t.Fatalf("object %s missing pooled features: %+v", o.ID, o.Features)
			}
		}
		for _, e := range b.Edges {
			if e.From >= e.To {
				t.Fatalf("edge %s -> %s violates the forward ranking", e.From, e.To)
			}
		}
	}
	if objects != cfg.Nodes {
		t.Fatalf("emitted %d objects, want %d", objects, cfg.Nodes)
	}
	// Each node draws EdgesPerNode sources with within-node dedupe, so the
	// total sits a little under EdgesPerNode*(Nodes-1).
	if edges < 4*cfg.Nodes || edges > 5*cfg.Nodes {
		t.Fatalf("emitted %d edges, want roughly 5 per node", edges)
	}
	if surrogates != cfg.Nodes/1000 {
		t.Fatalf("emitted %d surrogates, want %d", surrogates, cfg.Nodes/1000)
	}
	// The name pool keeps point predicates selective but non-unique.
	if want := cfg.Nodes / 20; len(names) != want {
		t.Fatalf("names drawn = %d, want the full %d-entry pool", len(names), want)
	}

	// Determinism: the same seed streams identical batches.
	if again := collectLarge(t, cfg); !reflect.DeepEqual(batches, again) {
		t.Fatal("GenerateLarge is not deterministic for a fixed seed")
	}

	// The stream must ingest cleanly (edges only reference emitted ranks,
	// surrogates ride with their originals).
	b := plus.NewMemBackend(0)
	t.Cleanup(func() { b.Close() })
	for _, batch := range batches {
		if _, err := b.Apply(batch); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.NumObjects(); got != cfg.Nodes {
		t.Fatalf("backend holds %d objects, want %d", got, cfg.Nodes)
	}

	// emit errors abort the stream.
	boom := errors.New("boom")
	calls := 0
	err := GenerateLarge(cfg, func(plus.Batch) error { calls++; return boom })
	if !errors.Is(err, boom) || calls != 1 {
		t.Fatalf("emit error: err=%v calls=%d, want first error returned", err, calls)
	}
}
