// Package filebackup implements the paper's Dropbox-like file backup
// service (§V-A, §VI-B) over the geo-replicated WAN K/V store. Files are
// split into packets of at most 8 KB (the paper's chunking rule), written
// to the locally owned pool, and mirrored to every WAN node by Stabilizer.
// Callers pick the consistency model for each backup from the Table III
// predicates (OneWNode, OneRegion, MajorityWNodes, MajorityRegions,
// AllWNodes, AllRegions) or register their own.
package filebackup

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"stabilizer/internal/kvstore"
	"stabilizer/internal/predlib"
	"stabilizer/internal/wankv"
)

// DefaultChunkSize is the paper's 8 KB message size bound.
const DefaultChunkSize = 8 << 10

// Errors returned by the service.
var (
	ErrNotBackedUp = errors.New("filebackup: file not found")
	ErrCorrupt     = errors.New("filebackup: inconsistent backup state")
)

// Result describes a completed local backup.
type Result struct {
	// FirstSeq..LastSeq are the Stabilizer sequence numbers carrying the
	// backup; the backup satisfies a consistency model once LastSeq
	// clears its predicate.
	FirstSeq uint64
	LastSeq  uint64
	// Chunks is the number of data packets written.
	Chunks int
	// Bytes is the file size.
	Bytes int
}

// manifest is the stored file metadata.
type manifest struct {
	Size      int `json:"size"`
	Chunks    int `json:"chunks"`
	ChunkSize int `json:"chunkSize"`
}

// Service is one node's file backup endpoint.
type Service struct {
	kv        *wankv.Store
	chunkSize int
}

// Option configures a Service.
type Option func(*Service)

// WithChunkSize overrides the 8 KB default packet bound.
func WithChunkSize(n int) Option {
	return func(s *Service) {
		if n > 0 {
			s.chunkSize = n
		}
	}
}

// New attaches a backup service to the WAN K/V store.
func New(kv *wankv.Store, opts ...Option) *Service {
	s := &Service{kv: kv, chunkSize: DefaultChunkSize}
	for _, o := range opts {
		o(s)
	}
	return s
}

// RegisterTableIII registers the six consistency models of the paper's
// Table III under their paper names, built for this node's topology.
func (s *Service) RegisterTableIII() error {
	topo := s.kv.Node().Topology()
	for name, src := range predlib.TableIII(topo) {
		if err := s.kv.RegisterPredicate(name, src); err != nil {
			return fmt.Errorf("filebackup: register %s: %w", name, err)
		}
	}
	return nil
}

// Backup stores a file into the local pool and starts geo-replication.
// Like the paper's put, the call is locally stable on return; use Wait (or
// BackupWait) to block until the chosen consistency model holds.
func (s *Service) Backup(name string, data []byte) (Result, error) {
	return s.BackupCtx(context.Background(), name, data)
}

// BackupCtx is Backup for bounded-memory deployments (core.Config.Flow): a
// chunk put waits at a full send log only as long as ctx allows, then fails
// with an error wrapping transport.ErrBackpressure and ctx.Err() so the
// caller can shed and retry. The manifest is written last, so an aborted
// backup is invisible to Restore (ErrNotBackedUp) rather than corrupt —
// retrying the same name simply overwrites the orphaned chunks.
func (s *Service) BackupCtx(ctx context.Context, name string, data []byte) (Result, error) {
	chunks := (len(data) + s.chunkSize - 1) / s.chunkSize
	if chunks == 0 {
		chunks = 1 // empty file still gets a manifest + one empty chunk
	}
	res := Result{Chunks: chunks, Bytes: len(data)}
	for i := 0; i < chunks; i++ {
		lo := i * s.chunkSize
		hi := lo + s.chunkSize
		if hi > len(data) {
			hi = len(data)
		}
		pr, err := s.kv.PutCtx(ctx, chunkKey(name, i), data[lo:hi])
		if err != nil {
			return Result{}, fmt.Errorf("filebackup: chunk %d: %w", i, err)
		}
		if i == 0 {
			res.FirstSeq = pr.Seq
		}
		res.LastSeq = pr.Seq
	}
	meta, err := json.Marshal(manifest{Size: len(data), Chunks: chunks, ChunkSize: s.chunkSize})
	if err != nil {
		return Result{}, fmt.Errorf("filebackup: manifest: %w", err)
	}
	pr, err := s.kv.PutCtx(ctx, metaKey(name), meta)
	if err != nil {
		return Result{}, fmt.Errorf("filebackup: manifest put: %w", err)
	}
	if res.FirstSeq == 0 {
		res.FirstSeq = pr.Seq
	}
	res.LastSeq = pr.Seq
	return res, nil
}

// Wait blocks until the backup satisfies the named consistency model.
func (s *Service) Wait(ctx context.Context, res Result, predicateKey string) error {
	return s.kv.WaitStable(ctx, res.LastSeq, predicateKey)
}

// BackupWait stores a file and blocks until the named consistency model
// holds — the paper's "drop a file, wait until it reaches a majority of
// WAN data centers before allowing access" workflow.
func (s *Service) BackupWait(ctx context.Context, name string, data []byte, predicateKey string) (Result, error) {
	res, err := s.BackupCtx(ctx, name, data)
	if err != nil {
		return Result{}, err
	}
	if err := s.Wait(ctx, res, predicateKey); err != nil {
		return res, err
	}
	return res, nil
}

// Restore reassembles a file from origin's (mirrored) pool. Use the local
// node index to restore locally owned backups.
func (s *Service) Restore(origin int, name string) ([]byte, error) {
	read := func(key string) (kvstore.Version, error) {
		if origin == s.kv.Node().Self() {
			return s.kv.Get(key)
		}
		return s.kv.GetFrom(origin, key)
	}
	mv, err := read(metaKey(name))
	if err != nil {
		return nil, fmt.Errorf("%w: %q from node %d: %v", ErrNotBackedUp, name, origin, err)
	}
	var m manifest
	if err := json.Unmarshal(mv.Value, &m); err != nil {
		return nil, fmt.Errorf("%w: bad manifest for %q: %v", ErrCorrupt, name, err)
	}
	out := make([]byte, 0, m.Size)
	for i := 0; i < m.Chunks; i++ {
		cv, err := read(chunkKey(name, i))
		if err != nil {
			return nil, fmt.Errorf("%w: %q missing chunk %d: %v", ErrCorrupt, name, i, err)
		}
		out = append(out, cv.Value...)
	}
	if len(out) != m.Size {
		return nil, fmt.Errorf("%w: %q reassembled %d bytes, manifest says %d", ErrCorrupt, name, len(out), m.Size)
	}
	return out, nil
}

// ChangePredicate switches a registered consistency model at runtime.
func (s *Service) ChangePredicate(key, source string) error {
	return s.kv.ChangePredicate(key, source)
}

// Frontier reports the newest local sequence satisfying the named model.
func (s *Service) Frontier(predicateKey string) (uint64, error) {
	return s.kv.GetStabilityFrontier(predicateKey)
}

func metaKey(name string) string { return "bk/" + name + "/meta" }

func chunkKey(name string, i int) string { return fmt.Sprintf("bk/%s/c%08d", name, i) }
