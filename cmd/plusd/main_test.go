package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/plus"
	"repro/internal/privilege"
)

func TestLoadLatticeDefault(t *testing.T) {
	lat, err := loadLattice("")
	if err != nil {
		t.Fatal(err)
	}
	if !lat.Dominates("Protected", privilege.Public) {
		t.Error("default lattice should be two-level")
	}
}

func TestLoadLatticeFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lattice.json")
	if err := os.WriteFile(path, []byte(`[["High-1","Low-2"],["High-2","Low-2"]]`), 0o644); err != nil {
		t.Fatal(err)
	}
	lat, err := loadLattice(path)
	if err != nil {
		t.Fatal(err)
	}
	if !lat.Dominates("High-1", "Low-2") || lat.Dominates("High-1", "High-2") || lat.Dominates("High-2", "High-1") {
		t.Error("lattice file not honoured")
	}
}

func TestOpenBackendKinds(t *testing.T) {
	logB, err := openBackend("log", filepath.Join(t.TempDir(), "plus.log"), 64, false)
	if err != nil {
		t.Fatal(err)
	}
	defer logB.Close()
	if _, ok := logB.(*plus.LogBackend); !ok {
		t.Errorf("log backend = %T", logB)
	}
	if h := logB.ChangeWindow().Horizon; h != 64 {
		t.Errorf("log change horizon = %d, want 64", h)
	}

	memB, err := openBackend("mem", "", 128, false)
	if err != nil {
		t.Fatal(err)
	}
	defer memB.Close()
	if _, ok := memB.(*plus.MemBackend); !ok {
		t.Errorf("mem backend = %T", memB)
	}
	if h := memB.ChangeWindow().Horizon; h != 128 {
		t.Errorf("mem change horizon = %d, want 128", h)
	}
	defaultB, err := openBackend("mem", "", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer defaultB.Close()
	if h := defaultB.ChangeWindow().Horizon; h != plus.DefaultChangeHorizon {
		t.Errorf("default change horizon = %d, want %d", h, plus.DefaultChangeHorizon)
	}

	if _, err := openBackend("banana", "", 0, false); err == nil {
		t.Error("unknown backend accepted")
	}
}

func TestLoadLatticeErrors(t *testing.T) {
	if _, err := loadLattice(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"not":"pairs"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadLattice(path); err == nil {
		t.Error("bad lattice JSON accepted")
	}
}

// TestBuildAuth resolves the -auth-* flags into the server trust config.
func TestBuildAuth(t *testing.T) {
	// Open mode: no keyring, anonymous flag invalid without it.
	cfg, err := buildAuth("", false, time.Hour, 24*time.Hour)
	if err != nil || cfg.Require || cfg.Keyring != nil {
		t.Errorf("open mode = %+v, %v", cfg, err)
	}
	if _, err := buildAuth("", true, time.Hour, 24*time.Hour); err == nil {
		t.Error("-auth-anonymous without -auth-keys accepted")
	}

	path := filepath.Join(t.TempDir(), "keyring")
	if err := os.WriteFile(path, []byte("k1:daemon-test-secret-bytes\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	cfg, err = buildAuth(path, true, 2*time.Hour, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Require || !cfg.AnonymousRead || cfg.DefaultTTL != 2*time.Hour {
		t.Errorf("auth config = %+v", cfg)
	}
	if cfg.Keyring == nil || cfg.Keyring.Active() != "k1" {
		t.Errorf("keyring = %+v", cfg.Keyring)
	}

	if _, err := buildAuth(filepath.Join(t.TempDir(), "missing"), false, time.Hour, 24*time.Hour); err == nil {
		t.Error("missing keyring file accepted")
	}
}

// TestBuildAuthTTLBounds: the default TTL cannot exceed the cap.
func TestBuildAuthTTLBounds(t *testing.T) {
	if _, err := buildAuth("", false, 2*time.Hour, time.Hour); err == nil {
		t.Error("-session-ttl above -session-max-ttl accepted")
	}
	cfg, err := buildAuth("", false, time.Hour, 2*time.Hour)
	if err != nil || cfg.MaxTTL != 2*time.Hour {
		t.Errorf("cfg = %+v, %v", cfg, err)
	}
}
