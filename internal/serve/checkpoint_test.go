package serve

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"popstab"
	"popstab/internal/fault"
)

// sampleCheckpoint builds a checkpoint with every field populated.
func sampleCheckpoint(id string) Checkpoint {
	return Checkpoint{
		ID:       id,
		Spec:     popstab.Spec{N: 4096, Tinner: 24, Seed: 7, Topology: "torus", Workers: 2},
		Target:   300,
		Pending:  120,
		Paused:   true,
		Dedupe:   true,
		Snapshot: []byte("opaque session bytes"),
	}
}

// checkEqual compares two checkpoints field by field.
func checkEqual(t *testing.T, got, want Checkpoint) {
	t.Helper()
	if got.ID != want.ID || got.Target != want.Target || got.Pending != want.Pending ||
		got.Paused != want.Paused || got.Dedupe != want.Dedupe {
		t.Fatalf("checkpoint fields diverged:\n got %+v\nwant %+v", got, want)
	}
	if got.Spec != want.Spec {
		t.Fatalf("spec diverged:\n got %+v\nwant %+v", got.Spec, want.Spec)
	}
	if !bytes.Equal(got.Snapshot, want.Snapshot) {
		t.Fatalf("snapshot bytes diverged")
	}
}

func TestCheckpointCodecRoundTrip(t *testing.T) {
	want := sampleCheckpoint("s-000042")
	blob, err := encodeCheckpoint(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	checkEqual(t, got, want)

	// The wire framing's CRC must reject corruption anywhere in the file.
	for _, off := range []int{0, 8, len(blob) / 2, len(blob) - 1} {
		bad := append([]byte(nil), blob...)
		bad[off] ^= 0x40
		if _, err := decodeCheckpoint(bad); err == nil {
			t.Errorf("corruption at offset %d decoded cleanly", off)
		}
	}
}

// storeContract exercises the CheckpointStore contract shared by both
// implementations.
func storeContract(t *testing.T, s CheckpointStore) {
	t.Helper()
	if _, ok, err := s.Get("s-000001"); ok || err != nil {
		t.Fatalf("empty store Get: ok=%v err=%v", ok, err)
	}
	a, b := sampleCheckpoint("s-000001"), sampleCheckpoint("s-000002")
	b.Pending = 0
	b.Paused = false
	if err := s.Put(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(b); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get("s-000001")
	if !ok || err != nil {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	checkEqual(t, got, a)

	// Put replaces.
	a2 := a
	a2.Pending = 12
	if err := s.Put(a2); err != nil {
		t.Fatal(err)
	}
	got, _, _ = s.Get("s-000001")
	checkEqual(t, got, a2)

	cps, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 2 || cps[0].ID != "s-000001" || cps[1].ID != "s-000002" {
		t.Fatalf("List returned %d entries (want 2, ordered)", len(cps))
	}

	if err := s.Delete("s-000001"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("s-000001"); err != nil { // idempotent
		t.Fatalf("double delete: %v", err)
	}
	if _, ok, _ := s.Get("s-000001"); ok {
		t.Fatal("deleted checkpoint still present")
	}
	if cps, _ = s.List(); len(cps) != 1 {
		t.Fatalf("List after delete: %d entries", len(cps))
	}
}

func TestMemStoreContract(t *testing.T) { storeContract(t, NewMemStore()) }

func TestFSStoreContract(t *testing.T) {
	s, err := NewFSStore(filepath.Join(t.TempDir(), "ckpts"))
	if err != nil {
		t.Fatal(err)
	}
	storeContract(t, s)
}

// TestFSStoreSkipsCorruptAndStray pins the recovery posture: stray temp
// files and corrupted checkpoints are skipped by List, not fatal.
func TestFSStoreSkipsCorruptAndStray(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	good := sampleCheckpoint("s-000003")
	if err := s.Put(good); err != nil {
		t.Fatal(err)
	}
	// A torn/corrupt checkpoint and a stray temp file from a crashed
	// writer.
	if err := os.WriteFile(filepath.Join(dir, "s-000004.ckpt"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "tmp-123456"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	cps, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 1 || cps[0].ID != "s-000003" {
		t.Fatalf("List = %d entries, want only the intact one", len(cps))
	}
	if _, ok, err := s.Get("s-000004"); ok || err == nil {
		t.Fatal("corrupt Get reported ok")
	}
}

// TestFSStoreWriteFaultPreservesPrevious is the atomicity invariant under
// the checkpoint-write fault: a failure injected between temp write and
// rename (a crash mid-write) leaves the previous checkpoint bit-intact.
func TestFSStoreWriteFaultPreservesPrevious(t *testing.T) {
	s, err := NewFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	first := sampleCheckpoint("s-000005")
	if err := s.Put(first); err != nil {
		t.Fatal(err)
	}

	faults := fault.NewSet()
	faults.Arm(fault.CheckpointWrite, 1, nil)
	s.Faults = faults
	second := first
	second.Pending = 1
	if err := s.Put(second); err == nil {
		t.Fatal("armed checkpoint-write fault did not fail Put")
	}
	got, ok, err := s.Get("s-000005")
	if !ok || err != nil {
		t.Fatalf("previous checkpoint lost after failed write: ok=%v err=%v", ok, err)
	}
	checkEqual(t, got, first)

	// Fault exhausted: the retry lands and replaces.
	if err := s.Put(second); err != nil {
		t.Fatal(err)
	}
	got, _, _ = s.Get("s-000005")
	checkEqual(t, got, second)
}

func TestFSStoreRejectsBadIDs(t *testing.T) {
	s, err := NewFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"", "../escape", "a/b", `a\b`, ".hidden"} {
		if err := s.Put(Checkpoint{ID: id, Spec: popstab.Spec{N: 4096, Seed: 1}}); err == nil {
			t.Errorf("Put accepted id %q", id)
		}
	}
}

// FuzzCheckpoint feeds decodeCheckpoint the bytes of a checkpoint file, as
// recovery reads them back. With reseal set the fuzzed bytes get a valid
// trailing CRC-32C, so the search reaches past the checksum into the
// framing and the payload. Hostile bytes must give an error — never a
// panic, nor an allocation sized from a length field the file cannot back
// — and a file that decodes must re-encode to exactly its own bytes.
func FuzzCheckpoint(f *testing.F) {
	for _, cp := range []Checkpoint{sampleCheckpoint("s-000001"), {ID: "s-1", Spec: popstab.Spec{N: 4096}}} {
		blob, err := encodeCheckpoint(cp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob, false)
	}
	f.Fuzz(func(t *testing.T, data []byte, reseal bool) {
		if reseal && len(data) >= 4 {
			data = append([]byte(nil), data...)
			body := data[:len(data)-4]
			binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cp, err := decodeCheckpoint(data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(4*len(data))+1<<16 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		blob, err := encodeCheckpoint(cp)
		if err != nil {
			t.Fatalf("decoded checkpoint does not encode: %v", err)
		}
		if !bytes.Equal(blob, data) {
			t.Fatalf("decoded checkpoint re-encodes to other bytes:\n got %x\nwant %x", blob, data)
		}
	})
}
