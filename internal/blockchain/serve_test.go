package blockchain

import (
	"path/filepath"
	"testing"
	"time"

	"hashcore/internal/baseline"
)

// growServed mines n linear blocks onto the node and returns their IDs
// and blocks in height order.
func growServed(t *testing.T, n *Node, count int) ([]Hash, []Block) {
	t.Helper()
	ids := make([]Hash, 0, count)
	blocks := make([]Block, 0, count)
	parent := n.TipID()
	tm := n.TipHeader().Time
	for i := 0; i < count; i++ {
		tm += 30
		b := mineOn(t, n, parent, tm, [][]byte{{byte(i), 'x'}})
		id, err := n.AddBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		blocks = append(blocks, b)
		parent = id
	}
	return ids, blocks
}

// sameBlock compares a served block with the original.
func sameBlock(a, b Block) bool {
	if a.Header != b.Header || len(a.Txs) != len(b.Txs) {
		return false
	}
	for i := range a.Txs {
		if string(a.Txs[i]) != string(b.Txs[i]) {
			return false
		}
	}
	return true
}

func testBlockServing(t *testing.T, store Store) {
	node := newTestNode(t, store)
	ids, blocks := growServed(t, node, 6)

	for i, id := range ids {
		got, ok := node.BlockByHash(id)
		if !ok {
			t.Fatalf("BlockByHash(%d) not found", i)
		}
		if !sameBlock(got, blocks[i]) {
			t.Fatalf("BlockByHash(%d) = %+v, want %+v", i, got, blocks[i])
		}
	}
	if _, ok := node.BlockByHash(Hash{0xde, 0xad}); ok {
		t.Fatal("BlockByHash found a block that does not exist")
	}
	if _, ok := node.BlockByHash(node.GenesisID()); ok {
		t.Fatal("genesis has no stored body and must not be served")
	}
	if !node.HasBlock(ids[0]) || node.HasBlock(Hash{1}) {
		t.Fatal("HasBlock wrong")
	}

	// Blocks: request order preserved, unknowns skipped, bound applied.
	req := []Hash{ids[3], {0xbb}, ids[0], ids[5]}
	got := node.Blocks(req, 0)
	if len(got) != 3 || !sameBlock(got[0], blocks[3]) || !sameBlock(got[1], blocks[0]) || !sameBlock(got[2], blocks[5]) {
		t.Fatalf("Blocks returned %d blocks in wrong shape", len(got))
	}
	if got := node.Blocks(req, 2); len(got) != 2 {
		t.Fatalf("Blocks(max=2) returned %d", len(got))
	}
}

func TestBlockServingMemStore(t *testing.T) { testBlockServing(t, NewMemStore()) }
func TestBlockServingNilStore(t *testing.T) { testBlockServing(t, nil) }
func TestBlockServingFileStore(t *testing.T) {
	fs, err := OpenFileStore(filepath.Join(t.TempDir(), "blocks.log"))
	if err != nil {
		t.Fatal(err)
	}
	testBlockServing(t, fs)
}

// TestBlockServingSurvivesRestart reopens a node over each store and
// checks replayed blocks are served with the same bodies: the file
// store re-reads its log, and the in-memory store serves through the
// index the replay rebuilt.
func TestBlockServingSurvivesRestart(t *testing.T) {
	t.Run("file", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "blocks.log")
		testServingAfterReopen(t, func() Store {
			fs, err := OpenFileStore(path)
			if err != nil {
				t.Fatal(err)
			}
			return fs
		})
	})
	t.Run("mem", func(t *testing.T) {
		ms := NewMemStore()
		testServingAfterReopen(t, func() Store { return ms })
	})
}

// testServingAfterReopen grows a node over open(), closes it, opens a
// second node over open() again and checks every body it serves.
func testServingAfterReopen(t *testing.T, open func() Store) {
	node := newTestNode(t, open())
	ids, blocks := growServed(t, node, 5)
	node.Close()

	node2 := newTestNode(t, open())
	if node2.Replayed() != 5 {
		t.Fatalf("replayed %d, want 5", node2.Replayed())
	}
	for i, id := range ids {
		got, ok := node2.BlockByHash(id)
		if !ok || !sameBlock(got, blocks[i]) {
			t.Fatalf("after restart, block %d not served intact (found=%v)", i, ok)
		}
	}
}

// TestHeadersWithIDsNamesBlocks: every annotated header's ID names the
// block at that height, and the ID hashes the header beside it.
func TestHeadersWithIDsNamesBlocks(t *testing.T) {
	node := newTestNode(t, nil)
	ids, _ := growServed(t, node, 7)

	locator := []Hash{ids[2]} // anchor mid-chain
	annotated := node.HeadersWithIDs(locator, 0)
	if len(annotated) != 4 {
		t.Fatalf("page size %d, want 4", len(annotated))
	}
	for i, ah := range annotated {
		if ah.ID != ids[3+i] {
			t.Fatalf("annotated ID %d names the wrong block", i)
		}
		if id, err := (baseline.SHA256d{}).Hash(ah.Header.Marshal()); err != nil || id != ah.ID {
			t.Fatalf("annotated ID %d is not its header's hash", i)
		}
	}
}

// TestFileStoreGroupCommit exercises the batched-fsync configuration:
// appends below the batch size defer the sync (observable via the armed
// timer flushing), the batch boundary forces one, Flush is explicit, and
// everything is intact after reopen.
func TestFileStoreGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blocks.log")
	fs, err := OpenFileStoreWith(path, FileStoreOptions{BatchAppends: 4, BatchDelay: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	node, err := OpenNode(NodeConfig{Params: DefaultParams(), Hasher: baseline.SHA256d{}, Store: fs})
	if err != nil {
		t.Fatal(err)
	}
	ids, blocks := growServed(t, node, 10) // 2 full batches + 2 pending

	fs.mu.Lock()
	pending := fs.pending
	fs.mu.Unlock()
	if pending != 2 {
		t.Fatalf("pending after 10 appends with batch 4 = %d, want 2", pending)
	}
	if err := fs.Flush(); err != nil {
		t.Fatal(err)
	}
	fs.mu.Lock()
	pending = fs.pending
	fs.mu.Unlock()
	if pending != 0 {
		t.Fatalf("pending after Flush = %d, want 0", pending)
	}

	// Bodies are servable regardless of sync state.
	for i, id := range ids {
		if got, ok := node.BlockByHash(id); !ok || !sameBlock(got, blocks[i]) {
			t.Fatalf("group-commit store failed to serve block %d", i)
		}
	}
	node.Close()

	fs2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	node2, err := OpenNode(NodeConfig{Params: DefaultParams(), Hasher: baseline.SHA256d{}, Store: fs2})
	if err != nil {
		t.Fatal(err)
	}
	defer node2.Close()
	if node2.Replayed() != 10 || node2.Height() != 10 {
		t.Fatalf("reopen: replayed %d height %d, want 10/10", node2.Replayed(), node2.Height())
	}
}

// TestFileStoreGroupCommitDelayFlush checks the time-based half of
// group commit: a lone append is synced by the background timer without
// any further traffic.
func TestFileStoreGroupCommitDelayFlush(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blocks.log")
	fs, err := OpenFileStoreWith(path, FileStoreOptions{BatchAppends: 1 << 20, BatchDelay: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	node, err := OpenNode(NodeConfig{Params: DefaultParams(), Hasher: baseline.SHA256d{}, Store: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	growServed(t, node, 1)

	deadline := time.Now().Add(10 * time.Second)
	for {
		fs.mu.Lock()
		pending := fs.pending
		fs.mu.Unlock()
		if pending == 0 {
			return // background flush ran
		}
		if time.Now().After(deadline) {
			t.Fatal("background flush never ran")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
