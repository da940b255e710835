package blockchain

import (
	"errors"
	"math/big"
	"os"
	"path/filepath"
	"testing"

	"hashcore/internal/baseline"
)

// mineInto extends the node's best chain by `blocks` blocks.
func mineInto(t *testing.T, n *Node, blocks int) {
	t.Helper()
	for i := 0; i < blocks; i++ {
		tm := n.TipHeader().Time + 30
		b := mineOn(t, n, n.TipID(), tm, [][]byte{[]byte{byte(i), byte(n.Height())}, []byte("payload")})
		if _, err := n.AddBlock(b); err != nil {
			t.Fatalf("mining block %d: %v", i, err)
		}
	}
}

func openFileNode(t *testing.T, path string) (*Node, *FileStore) {
	t.Helper()
	fs, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	n, err := OpenNode(NodeConfig{
		Params: DefaultParams(),
		Hasher: baseline.SHA256d{},
		Store:  fs,
	})
	if err != nil {
		fs.Close()
		t.Fatal(err)
	}
	return n, fs
}

// TestFileStoreRestartRecoversExactState is the acceptance test: mine N
// blocks into a file store, reopen it, and the recovered tip ID, height
// and total work must be identical.
func TestFileStoreRestartRecoversExactState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blocks.log")

	n, _ := openFileNode(t, path)
	mineInto(t, n, 6)
	wantTip, wantHeight, wantWork := n.TipID(), n.Height(), n.TotalWork()
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	n2, fs2 := openFileNode(t, path)
	defer n2.Close()
	if fs2.RecoveredTruncation() {
		t.Error("clean log reported a recovered truncation")
	}
	if n2.Replayed() != 6 {
		t.Errorf("replayed %d blocks, want 6", n2.Replayed())
	}
	if n2.TipID() != wantTip {
		t.Errorf("recovered tip %x, want %x", n2.TipID(), wantTip)
	}
	if n2.Height() != wantHeight {
		t.Errorf("recovered height %d, want %d", n2.Height(), wantHeight)
	}
	if n2.TotalWork().Cmp(wantWork) != 0 {
		t.Errorf("recovered total work %v, want %v", n2.TotalWork(), wantWork)
	}

	// And the reopened node keeps mining from there.
	mineInto(t, n2, 2)
	if n2.Height() != wantHeight+2 {
		t.Errorf("height after resume = %d", n2.Height())
	}
}

// TestFileStoreForkSurvivesRestart: side branches are part of chain
// state (fork choice needs their work) and must persist too.
func TestFileStoreForkSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blocks.log")
	n, _ := openFileNode(t, path)
	mineInto(t, n, 3)
	// A side branch off height 1.
	hs := n.HeadersWithIDs(nil, 0)
	side := mineOn(t, n, hs[0].ID, hs[0].Header.Time+61, [][]byte{[]byte("side")})
	if _, err := n.AddBlock(side); err != nil {
		t.Fatal(err)
	}
	wantLen := n.Len()
	n.Close()

	n2, _ := openFileNode(t, path)
	defer n2.Close()
	if n2.Len() != wantLen {
		t.Errorf("recovered tree has %d blocks, want %d (side branch lost)", n2.Len(), wantLen)
	}
}

// TestFileStoreTruncatedTailDropped is the crash-mid-append case: a
// partial final record must be detected and dropped without corrupting
// the chain, and the log must be clean for further appends.
func TestFileStoreTruncatedTailDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blocks.log")
	n, _ := openFileNode(t, path)
	mineInto(t, n, 5)
	tipAt4 := n.HeadersWithIDs(nil, 0)[3].Header // header at height 4
	n.Close()

	// Tear the final record: chop a few bytes off the file.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	n2, fs2 := openFileNode(t, path)
	if !fs2.RecoveredTruncation() {
		t.Error("truncated tail not reported")
	}
	if n2.Height() != 4 {
		t.Fatalf("height after torn tail = %d, want 4", n2.Height())
	}
	if n2.TipHeader() != tipAt4 {
		t.Error("tip after torn tail is not the last intact block")
	}
	// The log is clean again: mining resumes and the next restart sees
	// a consistent chain.
	mineInto(t, n2, 2)
	wantTip, wantHeight := n2.TipID(), n2.Height()
	n2.Close()

	n3, fs3 := openFileNode(t, path)
	defer n3.Close()
	if fs3.RecoveredTruncation() {
		t.Error("repaired log still reports truncation")
	}
	if n3.TipID() != wantTip || n3.Height() != wantHeight {
		t.Errorf("post-repair restart: height %d tip %x, want %d %x",
			n3.Height(), n3.TipID(), wantHeight, wantTip)
	}
}

// TestFileStoreCorruptTailCRC: bit rot in the final record must be
// caught by the checksum and the record dropped.
func TestFileStoreCorruptTailCRC(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blocks.log")
	n, _ := openFileNode(t, path)
	mineInto(t, n, 4)
	n.Close()

	// Flip one byte inside the last record's payload (well before the
	// trailing CRC).
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-20] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	n2, fs2 := openFileNode(t, path)
	defer n2.Close()
	if !fs2.RecoveredTruncation() {
		t.Error("corrupt record not reported")
	}
	if n2.Height() != 3 {
		t.Errorf("height after corrupt tail = %d, want 3", n2.Height())
	}
}

// TestFileStoreRejectsForeignFile: a file that is not a block log must
// be refused, not silently truncated to nothing.
func TestFileStoreRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "notablocklog")
	if err := os.WriteFile(path, []byte("definitely not a block log"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStore(path); err == nil {
		t.Fatal("foreign file opened as a block log")
	}
}

func TestBlockRecordRoundTrip(t *testing.T) {
	b := Block{
		Header: Header{Version: 7, PrevHash: Hash{1}, MerkleRoot: Hash{2}, Time: 99, Bits: 0x1d00ffff, Nonce: 42},
		Txs:    [][]byte{[]byte("alpha"), {}, []byte("gamma")},
	}
	got, err := UnmarshalBlock(MarshalBlock(b))
	if err != nil {
		t.Fatal(err)
	}
	if got.Header != b.Header || len(got.Txs) != len(b.Txs) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for i := range b.Txs {
		if string(got.Txs[i]) != string(b.Txs[i]) {
			t.Errorf("tx %d mismatch", i)
		}
	}
	// Structural damage must be rejected, not crash.
	if _, err := UnmarshalBlock(MarshalBlock(b)[:HeaderSize+2]); err == nil {
		t.Error("truncated payload accepted")
	}
}

func TestMemStoreReplay(t *testing.T) {
	ms := NewMemStore()
	n, err := OpenNode(NodeConfig{Params: DefaultParams(), Hasher: baseline.SHA256d{}, Store: ms})
	if err != nil {
		t.Fatal(err)
	}
	mineInto(t, n, 3)
	if ms.Len() != 3 {
		t.Fatalf("mem store retained %d blocks", ms.Len())
	}
	wantTip, wantWork := n.TipID(), n.TotalWork()
	n.Close()

	n2, err := OpenNode(NodeConfig{Params: DefaultParams(), Hasher: baseline.SHA256d{}, Store: ms})
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	if n2.TipID() != wantTip || n2.TotalWork().Cmp(wantWork) != 0 {
		t.Error("mem-store replay did not recover state")
	}
	if n2.TotalWork().Cmp(big.NewInt(0)) <= 0 {
		t.Error("no work recovered")
	}
}

// failingStore wraps MemStore and fails every Append after the first
// failAfter successes.
type failingStore struct {
	*MemStore
	failAfter int
}

func (s *failingStore) Append(b Block) error {
	if s.MemStore.Len() >= s.failAfter {
		return os.ErrDeadlineExceeded // any sentinel will do
	}
	return s.MemStore.Append(b)
}

// TestNodeHaltsOnStoreFailure: a failed append must latch — the block
// log stays an exact prefix of the accepted chain and nothing further
// is accepted, so a restart can always replay cleanly.
func TestNodeHaltsOnStoreFailure(t *testing.T) {
	fs := &failingStore{MemStore: NewMemStore(), failAfter: 2}
	n, err := OpenNode(NodeConfig{Params: DefaultParams(), Hasher: baseline.SHA256d{}, Store: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	events, cancel := n.Subscribe(8)
	defer cancel()

	mineInto(t, n, 2) // both persist fine
	b3 := mineOn(t, n, n.TipID(), n.TipHeader().Time+30, [][]byte{[]byte("b3")})
	if _, err := n.AddBlock(b3); err == nil {
		t.Fatal("append failure not surfaced")
	}
	// The block connected in memory and subscribers heard about it…
	if n.Height() != 3 {
		t.Errorf("height = %d, want 3 (block connects even when persist fails)", n.Height())
	}
	sawH3 := false
	for len(events) > 0 {
		if ev := <-events; ev.Height == 3 {
			sawH3 = true
		}
	}
	if !sawH3 {
		t.Error("tip event for the unpersisted block was swallowed")
	}
	// …but the log holds only the persisted prefix, and the node is
	// halted so the gap can never gain descendants.
	if fs.MemStore.Len() != 2 {
		t.Errorf("store holds %d blocks, want the 2-block prefix", fs.MemStore.Len())
	}
	b4 := mineOn(t, n, n.TipID(), n.TipHeader().Time+30, [][]byte{[]byte("b4")})
	if _, err := n.AddBlock(b4); err == nil {
		t.Fatal("node accepted a block after the store failed")
	}
	if n.Height() != 3 {
		t.Errorf("halted node still extended the chain to %d", n.Height())
	}
}

// TestNodeRejectsOversizedBlock: blocks the store could not replay are
// refused at admission, before consensus connects them.
func TestNodeRejectsOversizedBlock(t *testing.T) {
	n := newTestNode(t, nil)
	huge := make([]byte, maxStoredTxBytes+1)
	b := mineOn(t, n, n.GenesisID(), DefaultParams().GenesisTime+30, [][]byte{huge})
	if _, err := n.AddBlock(b); !errors.Is(err, ErrBlockTooLarge) {
		t.Fatalf("err = %v, want ErrBlockTooLarge", err)
	}
	if n.Height() != 0 || n.Len() != 1 {
		t.Error("oversized block reached the chain")
	}
	// And the bound composes: too many transactions.
	many := make([][]byte, maxStoredTxs+1)
	for i := range many {
		many[i] = []byte{byte(i)}
	}
	if err := storableBlockErr(Block{Txs: many}); !errors.Is(err, ErrBlockTooLarge) {
		t.Errorf("tx-count bound not enforced: %v", err)
	}
}

// TestFileStoreAppendBeforeLoad: the write offset is only known after
// Load; appending first must be refused, not clobber record 1.
func TestFileStoreAppendBeforeLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blocks.log")
	n, _ := openFileNode(t, path)
	mineInto(t, n, 2)
	n.Close()

	fs, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if err := fs.Append(Block{Header: Header{Version: 1}}); err == nil {
		t.Fatal("Append before Load accepted — would overwrite existing records")
	}
	// The log is untouched: a normal open still replays both blocks.
	n2, _ := openFileNode(t, path)
	defer n2.Close()
	if n2.Replayed() != 2 {
		t.Errorf("replayed %d, want 2", n2.Replayed())
	}
}
