package blockchain

import (
	"encoding/binary"
	"fmt"
)

// Store persists the blocks a Node has accepted, in acceptance order.
// A Node replays the store on open (re-validating every block through
// the chain rules) and appends each newly accepted block, so the store
// never has to understand consensus: it is a dumb, ordered block log.
// It also serves its records back by append index, which is how the
// Node answers syncing peers (BlockByHash/Blocks) without holding every
// body in memory. Implementations need not be safe for concurrent use;
// the Node serializes access — except that BlockAt may be called from
// concurrent read-snapshots, so it must be safe for concurrent use with
// itself (both in-repo stores are: a slice read and a pread).
type Store interface {
	// Load replays every stored block in append order. It is called
	// once, at node open, before any Append.
	Load(fn func(Block) error) error
	// Append durably records a block the chain has accepted.
	Append(b Block) error
	// BlockAt returns the index-th appended block (replay order). The
	// index is dense: Load replays blocks 0..n-1 and the next Append is
	// block n.
	BlockAt(index int) (Block, error)
	// Close releases the store's resources. The Node calls it from
	// Node.Close.
	Close() error
}

// MemStore is the trivial Store: an in-memory slice. A node backed by
// it behaves exactly like the pre-persistence Chain — state dies with
// the process — which keeps tests and benchmarks free of filesystem
// traffic.
type MemStore struct {
	blocks []Block
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// Load replays the retained blocks.
func (s *MemStore) Load(fn func(Block) error) error {
	for _, b := range s.blocks {
		if err := fn(b); err != nil {
			return err
		}
	}
	return nil
}

// Append retains the block.
func (s *MemStore) Append(b Block) error {
	s.blocks = append(s.blocks, b)
	return nil
}

// BlockAt returns the index-th retained block.
func (s *MemStore) BlockAt(index int) (Block, error) {
	if index < 0 || index >= len(s.blocks) {
		return Block{}, fmt.Errorf("blockchain: block index %d out of range (%d stored)", index, len(s.blocks))
	}
	return s.blocks[index], nil
}

// Close is a no-op.
func (s *MemStore) Close() error { return nil }

// Len returns how many blocks the store retains.
func (s *MemStore) Len() int { return len(s.blocks) }

// Bounds on stored block shape, enforced symmetrically: Node.AddBlock
// rejects blocks that exceed them (ErrBlockTooLarge) BEFORE consensus
// sees them, and the decoder rejects records that claim to exceed them
// (so a corrupt length prefix cannot demand an absurd allocation).
// Without the admission-side check a chain-accepted block could be
// appended to the log and then poison it at the next replay.
const (
	maxStoredTxs     = 1 << 16 // transactions per block
	maxStoredTxBytes = 1 << 24 // bytes per transaction
)

// ErrBlockTooLarge reports a block that exceeds the store's record
// bounds. Such blocks are rejected at admission, never half-persisted.
var ErrBlockTooLarge = fmt.Errorf("blockchain: block exceeds store record bounds")

// storableBlockErr checks b against the record bounds the decode path
// enforces, so everything the node accepts is guaranteed replayable.
func storableBlockErr(b Block) error {
	if len(b.Txs) > maxStoredTxs {
		return fmt.Errorf("%w: %d transactions (max %d)", ErrBlockTooLarge, len(b.Txs), maxStoredTxs)
	}
	size := HeaderSize + 4
	for _, tx := range b.Txs {
		if len(tx) > maxStoredTxBytes {
			return fmt.Errorf("%w: %d-byte transaction (max %d)", ErrBlockTooLarge, len(tx), maxStoredTxBytes)
		}
		size += 4 + len(tx)
	}
	if size > maxRecordBytes {
		return fmt.Errorf("%w: %d-byte record (max %d)", ErrBlockTooLarge, size, maxRecordBytes)
	}
	return nil
}

// MarshalBlock encodes a block as header || u32 txcount || (u32 len ||
// bytes)* in little-endian, the payload format of store records.
func MarshalBlock(b Block) []byte {
	size := HeaderSize + 4
	for _, tx := range b.Txs {
		size += 4 + len(tx)
	}
	out := make([]byte, 0, size)
	out = append(out, b.Header.Marshal()...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(b.Txs)))
	for _, tx := range b.Txs {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(tx)))
		out = append(out, tx...)
	}
	return out
}

// errBadBlockRecord reports a structurally invalid stored block.
var errBadBlockRecord = fmt.Errorf("blockchain: malformed block record")

// UnmarshalBlock decodes a MarshalBlock payload.
func UnmarshalBlock(data []byte) (Block, error) {
	var b Block
	if len(data) < HeaderSize+4 {
		return b, fmt.Errorf("%w: %d bytes", errBadBlockRecord, len(data))
	}
	h, err := UnmarshalHeader(data[:HeaderSize])
	if err != nil {
		return b, err
	}
	b.Header = h
	n := binary.LittleEndian.Uint32(data[HeaderSize:])
	if n > maxStoredTxs {
		return b, fmt.Errorf("%w: %d transactions", errBadBlockRecord, n)
	}
	off := HeaderSize + 4
	b.Txs = make([][]byte, 0, n)
	for i := uint32(0); i < n; i++ {
		if len(data)-off < 4 {
			return b, fmt.Errorf("%w: truncated tx length", errBadBlockRecord)
		}
		l := binary.LittleEndian.Uint32(data[off:])
		off += 4
		if l > maxStoredTxBytes || int(l) > len(data)-off {
			return b, fmt.Errorf("%w: tx of %d bytes", errBadBlockRecord, l)
		}
		tx := make([]byte, l)
		copy(tx, data[off:off+int(l)])
		off += int(l)
		b.Txs = append(b.Txs, tx)
	}
	if off != len(data) {
		return b, fmt.Errorf("%w: %d trailing bytes", errBadBlockRecord, len(data)-off)
	}
	return b, nil
}
