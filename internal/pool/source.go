package pool

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hashcore/internal/blockchain"
)

// TemplateSource supplies block templates for jobs, accepts solved
// blocks back and announces every tip change. Implementations must be
// safe for concurrent use.
type TemplateSource interface {
	// Template returns a header for the next block with a zero nonce,
	// plus the height that block would occupy. Every call must return a
	// distinct header (ChainSource guarantees this with a coinbase
	// extranonce), so successive jobs never alias each other's search
	// space.
	Template() (blockchain.Header, int, error)
	// SubmitBlock submits a header whose PoW meets its own Bits. The
	// source reattaches the transactions it committed to in Template.
	SubmitBlock(h blockchain.Header) error
	// SubscribeTips registers for tip-change events — a solved block, a
	// competing miner's block, a reorg — which the server answers with
	// an immediate clean job. The cancel function unregisters and closes
	// the channel.
	SubscribeTips(buffer int) (<-chan blockchain.TipEvent, func())
}

// ChainSource adapts a blockchain.Node into a TemplateSource.
// Templates commit to a single synthetic coinbase
// transaction tagged with the pool name, height and a monotonic
// extranonce; the transactions behind each Merkle root are retained
// (bounded) so solved headers can be reassembled into full blocks.
type ChainSource struct {
	node *blockchain.Node
	tag  string
	now  func() time.Time

	// extranonce makes every template's coinbase — and therefore its
	// Merkle root and header — unique, even for templates built on the
	// same tip within the same second.
	extranonce atomic.Uint64

	mu sync.Mutex
	// txs maps template Merkle roots to the committed transactions.
	// Bounded FIFO: older roots than txsCap templates ago are forgotten,
	// which also naturally stales their jobs.
	txs   map[blockchain.Hash][][]byte
	order []blockchain.Hash
}

// txsCap bounds how many distinct template transaction sets ChainSource
// retains. Must comfortably exceed the job retention window.
const txsCap = 64

// NewChainSource wraps node. The tag goes into coinbase payloads so
// every pool instance produces distinct Merkle roots.
func NewChainSource(node *blockchain.Node, tag string) *ChainSource {
	return &ChainSource{
		node: node,
		tag:  tag,
		now:  time.Now,
		txs:  make(map[blockchain.Hash][][]byte),
	}
}

// Template builds a header extending the current best tip. The tip
// snapshot (parent, bits, height, timestamp floor) is taken atomically
// by the node; the extranonce guarantees two templates are never
// byte-identical.
func (cs *ChainSource) Template() (blockchain.Header, int, error) {
	var txs [][]byte
	header, height, err := cs.node.Template(uint64(cs.now().Unix()),
		func(height int, t uint64) blockchain.Hash {
			xn := cs.extranonce.Add(1)
			txs = [][]byte{[]byte(fmt.Sprintf("coinbase pool=%s height=%d time=%d xn=%d", cs.tag, height, t, xn))}
			return blockchain.MerkleRoot(txs)
		})
	if err != nil {
		return blockchain.Header{}, 0, err
	}
	cs.mu.Lock()
	cs.remember(header.MerkleRoot, txs)
	cs.mu.Unlock()
	return header, height, nil
}

// remember stores txs under root, evicting the oldest set at capacity.
// Caller holds cs.mu.
func (cs *ChainSource) remember(root blockchain.Hash, txs [][]byte) {
	if _, ok := cs.txs[root]; ok {
		return
	}
	if len(cs.order) >= txsCap {
		delete(cs.txs, cs.order[0])
		cs.order = cs.order[1:]
	}
	cs.txs[root] = txs
	cs.order = append(cs.order, root)
}

// SubmitBlock reassembles the block behind h's Merkle root and adds it
// to the node.
func (cs *ChainSource) SubmitBlock(h blockchain.Header) error {
	cs.mu.Lock()
	txs, ok := cs.txs[h.MerkleRoot]
	cs.mu.Unlock()
	if !ok {
		return fmt.Errorf("pool: no transactions retained for merkle root %x", h.MerkleRoot[:8])
	}
	_, err := cs.node.AddBlock(blockchain.Block{Header: h, Txs: txs})
	return err
}

// SubscribeTips forwards to the node's tip-event feed.
func (cs *ChainSource) SubscribeTips(buffer int) (<-chan blockchain.TipEvent, func()) {
	return cs.node.Subscribe(buffer)
}

// Height returns the node's current best height.
func (cs *ChainSource) Height() int { return cs.node.Height() }

// Node exposes the underlying consensus node.
func (cs *ChainSource) Node() *blockchain.Node { return cs.node }
