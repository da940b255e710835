package blockchain

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"

	"hashcore/internal/telemetry"
)

// fileMagic identifies a block-log file and pins its format version.
var fileMagic = [8]byte{'H', 'C', 'B', 'L', 'K', 0, 0, 1}

// maxRecordBytes bounds one stored record. It comfortably exceeds
// maxStoredTxs small transactions and exists so a corrupt length prefix
// cannot demand a giant allocation.
const maxRecordBytes = 1 << 26

// FileStoreOptions tunes a FileStore's durability/throughput trade-off.
// The zero value is the safe default: fsync on every append.
type FileStoreOptions struct {
	// BatchAppends enables group commit: instead of fsyncing every
	// append, the log fsyncs once per BatchAppends unsynced records (or
	// when BatchDelay elapses, whichever comes first). 0 or 1 keeps the
	// fsync-per-append default.
	//
	// The trade-off is explicit: with group commit a crash can lose up
	// to the last BatchAppends blocks (or BatchDelay's worth). What
	// survives is still a clean prefix of the accepted chain — records
	// are strictly sequential, and Load truncates everything from the
	// first torn record on — so a restart never sees corruption, it just
	// resumes from an earlier tip. During bulk sync that is usually the
	// right bargain: the blocks are re-fetchable from peers, and
	// fsync-per-append is the difference between ~7k and ~500k blocks/s
	// validated (one sample, sha256d PoW; blockchain.fsyncs_per_block in
	// benchmark/ is the live figure).
	BatchAppends int
	// BatchDelay bounds how long an unsynced record may linger before a
	// background flush. Default DefaultBatchDelay when group commit is
	// on.
	BatchDelay time.Duration
	// Metrics, when non-nil, registers the chain_store_* instruments:
	// append and fsync latency histograms plus the group-commit batch
	// size distribution.
	Metrics *telemetry.Registry
}

// DefaultBatchDelay is the group-commit flush deadline when
// FileStoreOptions enables batching but leaves BatchDelay zero.
const DefaultBatchDelay = 50 * time.Millisecond

// FileStore is a crash-safe append-only block log:
//
//	magic(8) | record*        record = len(4) | payload | crc32(4)
//
// By default every Append is written then fsynced before it returns, so
// an accepted block survives a process kill; OpenFileStoreWith can relax
// that to group commit (see FileStoreOptions). Torn writes are confined
// to the final unsynced records by construction (records are only ever
// appended); Load detects a truncated or corrupt tail — short record,
// bad CRC, absurd length — drops it, and truncates the file back to the
// last intact record so the log is clean again. Everything before the
// tail is covered by its own CRC and is replayed through full chain
// validation on open, so silent corruption cannot reach the tip.
//
// Load also builds an in-memory record index (one offset per block), so
// the store implements BlockReader: BlockAt re-reads any record with one
// pread, letting the node serve full blocks to syncing peers without
// keeping bodies in memory.
type FileStore struct {
	path string
	opts FileStoreOptions
	met  *storeMetrics // nil when telemetry is disabled

	mu      sync.Mutex // guards f, off, index, load and flush state
	f       *os.File
	off     int64 // end of the last intact record; appends go here
	load    bool  // Load has run
	offsets []int64
	sizes   []int64 // record sizes including len+crc framing

	pending  int         // appends since the last fsync (group commit)
	flushTmr *time.Timer // armed while pending > 0 and batching is on
	syncErr  error       // first background fsync failure, latched

	truncated bool // Load dropped a damaged tail
}

// OpenFileStore opens (or creates) the block log at path with the safe
// fsync-per-append configuration.
func OpenFileStore(path string) (*FileStore, error) {
	return OpenFileStoreWith(path, FileStoreOptions{})
}

// OpenFileStoreWith opens (or creates) the block log at path with the
// given durability options.
func OpenFileStoreWith(path string, opts FileStoreOptions) (*FileStore, error) {
	if opts.BatchAppends > 1 && opts.BatchDelay <= 0 {
		opts.BatchDelay = DefaultBatchDelay
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("blockchain: opening block log: %w", err)
	}
	fs := &FileStore{path: path, opts: opts, f: f, met: newStoreMetrics(opts.Metrics)}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if info.Size() == 0 {
		if _, err := f.Write(fileMagic[:]); err != nil {
			f.Close()
			return nil, fmt.Errorf("blockchain: writing block log magic: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
		fs.off = int64(len(fileMagic))
		return fs, nil
	}
	var magic [8]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil || magic != fileMagic {
		f.Close()
		return nil, fmt.Errorf("blockchain: %s is not a block log (bad magic)", path)
	}
	fs.off = int64(len(fileMagic))
	return fs, nil
}

// Path returns the log's file path.
func (fs *FileStore) Path() string { return fs.path }

// RecoveredTruncation reports whether Load found and dropped a damaged
// tail record (e.g. after a crash mid-append).
func (fs *FileStore) RecoveredTruncation() bool { return fs.truncated }

// Load replays every intact record in order, then truncates any damaged
// tail so subsequent Appends extend a clean log.
func (fs *FileStore) Load(fn func(Block) error) error {
	if _, err := fs.f.Seek(int64(len(fileMagic)), io.SeekStart); err != nil {
		return err
	}
	r := bufio.NewReaderSize(fs.f, 1<<16)
	off := int64(len(fileMagic))
	for {
		payload, n, err := readRecord(r)
		if err == io.EOF {
			break // clean end of log
		}
		if err != nil {
			// Damaged tail: drop it. Anything after the first bad record
			// is unreachable (appends are sequential), so truncating here
			// loses at most the blocks a crash already failed to commit.
			fs.truncated = true
			break
		}
		b, err := UnmarshalBlock(payload)
		if err != nil {
			// CRC matched but the payload is structurally invalid: this is
			// not a torn write, it is a format bug or deliberate tampering.
			return fmt.Errorf("blockchain: block log record at offset %d: %w", off, err)
		}
		if err := fn(b); err != nil {
			return err
		}
		fs.offsets = append(fs.offsets, off)
		fs.sizes = append(fs.sizes, n)
		off += n
	}
	if err := fs.f.Truncate(off); err != nil {
		return fmt.Errorf("blockchain: truncating damaged block log tail: %w", err)
	}
	if _, err := fs.f.Seek(off, io.SeekStart); err != nil {
		return err
	}
	fs.off = off
	fs.load = true
	return nil
}

// readRecord reads one len|payload|crc record. It returns io.EOF at a
// clean record boundary and a descriptive error for any damaged tail.
func readRecord(r *bufio.Reader) (payload []byte, size int64, err error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		if err == io.EOF {
			return nil, 0, io.EOF
		}
		return nil, 0, fmt.Errorf("blockchain: short record length: %w", err)
	}
	l := binary.LittleEndian.Uint32(lenBuf[:])
	if l == 0 || l > maxRecordBytes {
		return nil, 0, fmt.Errorf("blockchain: implausible record length %d", l)
	}
	buf := make([]byte, l+4)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, 0, fmt.Errorf("blockchain: short record body: %w", err)
	}
	payload = buf[:l]
	want := binary.LittleEndian.Uint32(buf[l:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, 0, fmt.Errorf("blockchain: record checksum mismatch: %#x != %#x", got, want)
	}
	return payload, int64(4 + l + 4), nil
}

// Append writes one block record, fsyncing before returning unless
// group commit is on (then durability is deferred to the batch flush;
// see FileStoreOptions). Load must have run first: it establishes the
// true end-of-log offset (and repairs any damaged tail); appending
// before it would overwrite the existing records.
func (fs *FileStore) Append(b Block) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if !fs.load {
		return errors.New("blockchain: FileStore.Append before Load (open the store through OpenNode)")
	}
	if fs.syncErr != nil {
		// A background flush already failed; the durable prefix ends
		// before records the caller believes accepted. Refuse further
		// appends so the node halts exactly as it would on a foreground
		// fsync failure.
		return fs.syncErr
	}
	payload := MarshalBlock(b)
	var t0 time.Time
	if fs.met != nil {
		t0 = time.Now()
	}
	rec := make([]byte, 0, 4+len(payload)+4)
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(payload)))
	rec = append(rec, payload...)
	rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(payload))
	if _, err := fs.f.WriteAt(rec, fs.off); err != nil {
		return fmt.Errorf("blockchain: appending block record: %w", err)
	}
	if fs.met != nil {
		fs.met.appendSeconds.ObserveSince(t0)
	}
	fs.offsets = append(fs.offsets, fs.off)
	fs.sizes = append(fs.sizes, int64(len(rec)))
	fs.off += int64(len(rec))

	if fs.opts.BatchAppends <= 1 {
		if fs.met != nil {
			t0 = time.Now()
		}
		if err := fs.f.Sync(); err != nil {
			return fmt.Errorf("blockchain: syncing block log: %w", err)
		}
		if fs.met != nil {
			fs.met.fsyncSeconds.ObserveSince(t0)
			fs.met.batchSize.Observe(1)
		}
		return nil
	}
	// Group commit: count the unsynced record and flush on the batch
	// boundary; otherwise make sure a flush deadline is armed.
	fs.pending++
	if fs.pending >= fs.opts.BatchAppends {
		return fs.flushLocked()
	}
	if fs.flushTmr == nil {
		fs.flushTmr = time.AfterFunc(fs.opts.BatchDelay, fs.backgroundFlush)
	}
	return nil
}

// flushLocked fsyncs the log and clears the batch state. Caller holds
// fs.mu.
func (fs *FileStore) flushLocked() error {
	if fs.flushTmr != nil {
		fs.flushTmr.Stop()
		fs.flushTmr = nil
	}
	if fs.pending == 0 {
		return fs.syncErr
	}
	batch := fs.pending
	fs.pending = 0
	var t0 time.Time
	if fs.met != nil {
		t0 = time.Now()
	}
	if err := fs.f.Sync(); err != nil {
		err = fmt.Errorf("blockchain: syncing block log: %w", err)
		if fs.syncErr == nil {
			fs.syncErr = err
		}
		return err
	}
	if fs.met != nil {
		fs.met.fsyncSeconds.ObserveSince(t0)
		fs.met.batchSize.Observe(float64(batch))
	}
	return nil
}

// backgroundFlush runs on the batch-delay timer.
func (fs *FileStore) backgroundFlush() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.f == nil {
		return // closed while the timer was in flight
	}
	fs.flushTmr = nil
	_ = fs.flushLocked() // failure is latched in syncErr for the next Append
}

// Flush forces any batched records to disk. A no-op in the default
// fsync-per-append configuration.
func (fs *FileStore) Flush() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.f == nil {
		return nil
	}
	return fs.flushLocked()
}

// BlockAt re-reads the index-th record from disk (BlockReader). The
// read is a positioned pread plus CRC re-verification, safe to run from
// concurrent node read-snapshots.
func (fs *FileStore) BlockAt(index int) (Block, error) {
	fs.mu.Lock()
	if index < 0 || index >= len(fs.offsets) {
		n := len(fs.offsets)
		fs.mu.Unlock()
		return Block{}, fmt.Errorf("blockchain: block index %d out of range (%d stored)", index, n)
	}
	off, size, f := fs.offsets[index], fs.sizes[index], fs.f
	fs.mu.Unlock()
	if f == nil {
		return Block{}, errors.New("blockchain: FileStore closed")
	}
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, off); err != nil {
		return Block{}, fmt.Errorf("blockchain: reading block record %d: %w", index, err)
	}
	l := binary.LittleEndian.Uint32(buf)
	if int64(l)+8 != size {
		return Block{}, fmt.Errorf("blockchain: block record %d length changed underfoot", index)
	}
	payload := buf[4 : 4+l]
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(buf[4+l:]); got != want {
		return Block{}, fmt.Errorf("blockchain: block record %d checksum mismatch: %#x != %#x", index, got, want)
	}
	return UnmarshalBlock(payload)
}

// Len returns how many intact records the log holds.
func (fs *FileStore) Len() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return len(fs.offsets)
}

// Close flushes any batched records, syncs and closes the log.
func (fs *FileStore) Close() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.f == nil {
		return nil
	}
	if fs.flushTmr != nil {
		fs.flushTmr.Stop()
		fs.flushTmr = nil
	}
	err := fs.f.Sync()
	if cerr := fs.f.Close(); err == nil {
		err = cerr
	}
	fs.f = nil
	if err != nil && !errors.Is(err, os.ErrClosed) {
		return err
	}
	return nil
}
