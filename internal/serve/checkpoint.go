package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"popstab"
	"popstab/internal/fault"
	"popstab/internal/wire"
)

// Checkpoint is the durable record of one job: enough to re-register it in
// a fresh manager and continue the run bit-identically. The Snapshot field
// is the session-layer snapshot (popstab.Session.Snapshot), itself a framed
// wire document; the checkpoint wraps it with the job's serving-layer
// state (identity, progress, scheduling flags).
type Checkpoint struct {
	// ID is the job's registry ID; recovery re-registers under it so
	// clients resolve the same session across a restart.
	ID string
	// Spec rebuilds the engine the snapshot restores into.
	Spec popstab.Spec
	// Target and Pending are the job's round accounting: total requested
	// and not yet run. Recovery resumes exactly the outstanding work.
	Target  uint64
	Pending uint64
	// Paused preserves a parked job's parking across restarts.
	Paused bool
	// Dedupe records that the job answered for its (hash, rounds) identity
	// in the dedupe cache at checkpoint time, so recovery can rejoin it.
	Dedupe bool
	// Snapshot is the session snapshot bytes.
	Snapshot []byte
}

// CheckpointStore persists checkpoints. Implementations must be safe for
// concurrent use; Put must be atomic (a reader never observes a torn
// checkpoint, and a failed write leaves the previous checkpoint intact).
type CheckpointStore interface {
	// Put durably replaces the checkpoint for cp.ID.
	Put(cp Checkpoint) error
	// Get fetches one checkpoint; ok reports existence.
	Get(id string) (cp Checkpoint, ok bool, err error)
	// List returns every stored checkpoint, ordered by ID. Entries that
	// fail integrity checks are skipped, not returned as errors: recovery
	// proceeds with whatever survived.
	List() ([]Checkpoint, error)
	// Delete removes a checkpoint (no-op when absent).
	Delete(id string) error
}

// ckptTag frames the checkpoint's serving-layer section in the wire
// document; the session snapshot is nested inside it as a byte string.
const ckptTag uint32 = 110

// encodeCheckpoint serializes cp through the wire codec, inheriting its
// framing guarantees: magic + version, length-checked sections, trailing
// CRC-32C. A torn or corrupted file fails wire.NewDec's checksum and is
// skipped by List.
func encodeCheckpoint(cp Checkpoint) ([]byte, error) {
	specBlob, err := json.Marshal(cp.Spec)
	if err != nil {
		return nil, fmt.Errorf("serve: encode checkpoint spec: %w", err)
	}
	enc := wire.NewEnc()
	enc.Begin(ckptTag)
	enc.String(cp.ID)
	enc.Bytes(specBlob)
	enc.U64(cp.Target)
	enc.U64(cp.Pending)
	enc.Bool(cp.Paused)
	enc.Bool(cp.Dedupe)
	enc.Bytes(cp.Snapshot)
	enc.End()
	return enc.Finish(), nil
}

// decodeCheckpoint reverses encodeCheckpoint. It accepts only what
// encodeCheckpoint writes — no bytes after the section, and the spec in the
// JSON form json.Marshal gives it — so a file that decodes re-encodes to the
// same bytes (FuzzCheckpoint). Every length is checked against the file by
// the wire decoder before anything is allocated.
func decodeCheckpoint(data []byte) (Checkpoint, error) {
	d, err := wire.NewDec(data)
	if err != nil {
		return Checkpoint{}, fmt.Errorf("serve: %w", err)
	}
	var cp Checkpoint
	d.Begin(ckptTag)
	cp.ID = d.String()
	specBlob := d.Bytes()
	cp.Target = d.U64()
	cp.Pending = d.U64()
	cp.Paused = d.Bool()
	cp.Dedupe = d.Bool()
	cp.Snapshot = d.Bytes()
	d.End()
	if err := d.Err(); err != nil {
		return Checkpoint{}, fmt.Errorf("serve: %w", err)
	}
	if n := d.Remaining(); n != 0 {
		return Checkpoint{}, fmt.Errorf("serve: %d bytes after the checkpoint section", n)
	}
	if err := json.Unmarshal(specBlob, &cp.Spec); err != nil {
		return Checkpoint{}, fmt.Errorf("serve: decode checkpoint spec: %w", err)
	}
	if canon, err := json.Marshal(cp.Spec); err != nil || !bytes.Equal(canon, specBlob) {
		return Checkpoint{}, errors.New("serve: checkpoint spec is not in the form encodeCheckpoint writes")
	}
	return cp, nil
}

// MemStore is the in-memory CheckpointStore: process-lifetime durability
// only, but the full store contract — tests and single-process hibernation
// use it so eviction does not require a disk.
type MemStore struct {
	mu  sync.Mutex
	cps map[string][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{cps: make(map[string][]byte)}
}

// Put stores an encoded copy of cp.
func (s *MemStore) Put(cp Checkpoint) error {
	blob, err := encodeCheckpoint(cp)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.cps[cp.ID] = blob
	s.mu.Unlock()
	return nil
}

// Get fetches one checkpoint.
func (s *MemStore) Get(id string) (Checkpoint, bool, error) {
	s.mu.Lock()
	blob, ok := s.cps[id]
	s.mu.Unlock()
	if !ok {
		return Checkpoint{}, false, nil
	}
	cp, err := decodeCheckpoint(blob)
	if err != nil {
		return Checkpoint{}, false, err
	}
	return cp, true, nil
}

// List returns every checkpoint ordered by ID.
func (s *MemStore) List() ([]Checkpoint, error) {
	s.mu.Lock()
	blobs := make([][]byte, 0, len(s.cps))
	for _, b := range s.cps {
		blobs = append(blobs, b)
	}
	s.mu.Unlock()
	out := make([]Checkpoint, 0, len(blobs))
	for _, b := range blobs {
		cp, err := decodeCheckpoint(b)
		if err != nil {
			continue // mirror FSStore: skip what fails integrity
		}
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// Delete removes a checkpoint.
func (s *MemStore) Delete(id string) error {
	s.mu.Lock()
	delete(s.cps, id)
	s.mu.Unlock()
	return nil
}

// FSStore is the filesystem CheckpointStore: one "<id>.ckpt" file per job
// in a flat directory. Writes go through a temp file in the same directory
// followed by an atomic rename, so a crash at any instant leaves either the
// previous checkpoint or the new one — never a torn file — and the wire
// framing's CRC catches anything the filesystem still manages to corrupt
// (such files are skipped by List, surfacing as a missing, not poisoned,
// checkpoint).
type FSStore struct {
	dir string
	// Faults is the injection seam; CheckpointWrite fires after the temp
	// file is written but before the rename, modeling a crash mid-write.
	Faults *fault.Set
}

// NewFSStore opens (creating if needed) a checkpoint directory.
func NewFSStore(dir string) (*FSStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: checkpoint dir: %w", err)
	}
	return &FSStore{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *FSStore) Dir() string { return s.dir }

const ckptExt = ".ckpt"

// path maps an ID to its checkpoint file. IDs are manager-generated
// ("s-%06d"), so no escaping is needed; reject separators defensively.
func (s *FSStore) path(id string) (string, error) {
	if id == "" || strings.ContainsAny(id, "/\\") || strings.HasPrefix(id, ".") {
		return "", fmt.Errorf("serve: bad checkpoint id %q", id)
	}
	return filepath.Join(s.dir, id+ckptExt), nil
}

// Put writes cp atomically: temp file, fsync, rename.
func (s *FSStore) Put(cp Checkpoint) error {
	dst, err := s.path(cp.ID)
	if err != nil {
		return err
	}
	blob, err := encodeCheckpoint(cp)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, "tmp-*")
	if err != nil {
		return fmt.Errorf("serve: checkpoint temp: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		return fmt.Errorf("serve: checkpoint write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("serve: checkpoint sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("serve: checkpoint close: %w", err)
	}
	// The injected crash point: the bytes are on disk under the temp name,
	// the previous checkpoint still under the real one.
	if err := s.Faults.Fire(fault.CheckpointWrite); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		return fmt.Errorf("serve: checkpoint rename: %w", err)
	}
	return nil
}

// Get fetches one checkpoint.
func (s *FSStore) Get(id string) (Checkpoint, bool, error) {
	p, err := s.path(id)
	if err != nil {
		return Checkpoint{}, false, err
	}
	blob, err := os.ReadFile(p)
	if errors.Is(err, os.ErrNotExist) {
		return Checkpoint{}, false, nil
	}
	if err != nil {
		return Checkpoint{}, false, fmt.Errorf("serve: checkpoint read: %w", err)
	}
	cp, err := decodeCheckpoint(blob)
	if err != nil {
		return Checkpoint{}, false, err
	}
	return cp, true, nil
}

// List returns every intact checkpoint ordered by ID. Files that fail to
// read or decode (stray temp files, corruption) are skipped: recovery runs
// with what survived.
func (s *FSStore) List() ([]Checkpoint, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("serve: checkpoint dir: %w", err)
	}
	var out []Checkpoint
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ckptExt) {
			continue
		}
		blob, err := os.ReadFile(filepath.Join(s.dir, e.Name()))
		if err != nil {
			continue
		}
		cp, err := decodeCheckpoint(blob)
		if err != nil {
			continue
		}
		// The filename is advisory; the ID inside the CRC-checked document
		// is authoritative.
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// Delete removes a checkpoint.
func (s *FSStore) Delete(id string) error {
	p, err := s.path(id)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("serve: checkpoint delete: %w", err)
	}
	return nil
}
