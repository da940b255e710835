package lab

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"hashcore/internal/blockchain"
	"hashcore/internal/p2p"
	"hashcore/internal/simnet"
	"hashcore/internal/wire"
)

// Adversary is a misbehaving peer: it lives on its own simnet host and
// speaks just enough of the protocol to attack a victim — floods,
// fabricated orphan chains, handshake squatting, slot occupation.
// Every attack is best-effort by design: the victim cutting us off is
// the success condition, not an error.
type Adversary struct {
	Host *simnet.Host
	// network/genesis let the adversary pass the victim's handshake.
	network, genesis string
}

// NewAdversary places an adversary on the fabric under the given host
// name, armed with the cluster's handshake parameters.
func NewAdversary(c *Cluster, host string) *Adversary {
	return &Adversary{
		Host:    c.Net.Host(host),
		network: "hashcore",
		genesis: c.Genesis(),
	}
}

// session dials victim and completes a valid handshake, so the attack
// happens inside an admitted session.
func (a *Adversary) session(victim string) (*wire.Peer, net.Conn, error) {
	nc, err := a.Host.Dial(victim, 5*time.Second)
	if err != nil {
		return nil, nil, err
	}
	wp := wire.NewPeer(nc, wire.PeerConfig{
		Hello: wire.Hello{
			Network: a.network,
			Genesis: a.genesis,
			Agent:   "adversary/1",
		},
		PingInterval: -1,
	})
	if _, err := wp.Handshake(); err != nil {
		wp.Close()
		return nil, nil, err
	}
	return wp, nc, nil
}

// sit reads wp's session, ignoring every frame, and returns a channel
// that is closed once the session has ended: the victim cut it, or the
// caller closed wp.
func sit(wp *wire.Peer) <-chan struct{} {
	ended := make(chan struct{})
	go func() {
		_ = wp.Run(func(wire.Envelope) error { return nil })
		close(ended)
	}()
	return ended
}

// FloodInvs blasts up to n tip announcements as fast as the link
// allows, returning how many were written before the victim cut the
// session (or the count ran out).
func (a *Adversary) FloodInvs(victim string, n int) int {
	wp, _, err := a.session(victim)
	if err != nil {
		return 0
	}
	defer wp.Close()
	var tip [32]byte
	sent := 0
	for i := 0; i < n; i++ {
		binary.BigEndian.PutUint64(tip[:], uint64(i)+1)
		if wp.Send(p2p.TypeInv, p2p.InvMsg{Tip: hex.EncodeToString(tip[:]), Height: i}) != nil {
			break
		}
		sent++
	}
	return sent
}

// HoldHandshake dials the victim and never says hello, squatting a
// pending-handshake slot until the victim's handshake timeout fires or
// the returned closer is called.
func (a *Adversary) HoldHandshake(victim string) (func(), error) {
	nc, err := a.Host.Dial(victim, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return func() { nc.Close() }, nil
}

// SlowLorisHello dials the victim and trickles the hello one byte at a
// time, far slower than any honest peer: the victim's handshake
// timeout, not our patience, decides when it ends.
func (a *Adversary) SlowLorisHello(victim string, interval time.Duration) {
	nc, err := a.Host.Dial(victim, 5*time.Second)
	if err != nil {
		return
	}
	defer nc.Close()
	hello := []byte(`{"type":"hello","payload":{"network":"hashcore"}}` + "\n")
	for _, b := range hello {
		if _, err := nc.Write([]byte{b}); err != nil {
			return
		}
		time.Sleep(interval)
	}
	// If the whole hello somehow landed, linger until the victim
	// closes on us.
	buf := make([]byte, 1)
	_ = nc.SetReadDeadline(time.Now().Add(time.Minute))
	_, _ = nc.Read(buf)
}

// fakeChain is a fabricated block descendancy whose first parent does
// not exist anywhere: every block parks as an orphan and none can ever
// connect — the parent-withholding attack.
type fakeChain struct {
	ids    []string
	blocks []blockchain.Block
}

func makeFakeChain(depth int, tag byte) *fakeChain {
	params := blockchain.DefaultParams()
	parent := blockchain.Hash{0xad, 0x0e, tag} // the withheld parent
	fc := &fakeChain{}
	for i := 0; i < depth; i++ {
		txs := [][]byte{{tag, byte(i), 'F'}}
		h := blockchain.Header{
			Version:    1,
			PrevHash:   parent,
			MerkleRoot: blockchain.MerkleRoot(txs),
			Time:       params.GenesisTime + uint64(i+1)*30,
			Bits:       params.GenesisBits,
			Nonce:      uint64(tag)<<32 | uint64(i),
		}
		b := blockchain.Block{Header: h, Txs: txs}
		// Advertise an id the victim can request by; the fabricated
		// parent link means the body never connects regardless.
		var id blockchain.Hash
		id[0], id[1], id[2], id[3] = 0xfa, 0xce, tag, byte(i)
		fc.ids = append(fc.ids, hex.EncodeToString(id[:]))
		fc.blocks = append(fc.blocks, b)
		parent = id
	}
	return fc
}

// ServeOrphanChain announces a fabricated tip and serves its headers
// and bodies to the victim until the victim drops or bans us (or
// maxRounds inv nudges go unanswered). Every served body parks as an
// attributed orphan on the victim; none ever connects.
func (a *Adversary) ServeOrphanChain(victim string, depth, maxRounds int) {
	wp, _, err := a.session(victim)
	if err != nil {
		return
	}
	defer wp.Close()
	fc := makeFakeChain(depth, 0x01)
	tip := fc.ids[len(fc.ids)-1]

	var done atomic.Bool
	go func() {
		// Re-announce so the victim starts a fresh sync round each
		// time the previous one ends in dropped ids.
		for i := 0; i < maxRounds && !done.Load(); i++ {
			if wp.Send(p2p.TypeInv, p2p.InvMsg{Tip: tip, Height: depth}) != nil {
				return
			}
			time.Sleep(50 * time.Millisecond)
		}
	}()
	defer done.Store(true)

	_ = wp.Run(func(env wire.Envelope) error {
		switch env.Type {
		case p2p.TypeGetHeaders:
			reply := p2p.HeadersMsg{}
			for i, b := range fc.blocks {
				reply.Headers = append(reply.Headers, p2p.HeaderRef{
					ID:     fc.ids[i],
					Header: hex.EncodeToString(b.Header.Marshal()),
				})
			}
			return wp.Send(p2p.TypeHeaders, reply)
		case p2p.TypeGetBlocks:
			var msg p2p.GetBlocksMsg
			if err := env.Decode(&msg); err != nil {
				return err
			}
			reply := p2p.BlocksMsg{}
			for _, want := range msg.Hashes {
				for i, id := range fc.ids {
					if id == want {
						reply.Blocks = append(reply.Blocks,
							hex.EncodeToString(blockchain.MarshalBlock(fc.blocks[i])))
					}
				}
			}
			return wp.Send(p2p.TypeBlocks, reply)
		default:
			return nil
		}
	})
}

// OccupySlots launches k sessions from distinct attacker hosts that
// handshake and then sit silent — the eclipse move. It returns the
// number of handshakes that completed; per attacker host, a channel
// closed once that attacker's connection has ended (already closed when
// its handshake failed); and a closer for the survivors.
func OccupySlots(c *Cluster, victim string, k int) (admitted int, ended map[string]<-chan struct{}, closeAll func()) {
	var peers []*wire.Peer
	ended = make(map[string]<-chan struct{}, k)
	for i := 0; i < k; i++ {
		host := fmt.Sprintf("evil%d", i)
		wp, _, err := NewAdversary(c, host).session(victim)
		if err != nil {
			refused := make(chan struct{})
			close(refused)
			ended[host] = refused
			continue
		}
		peers = append(peers, wp)
		ended[host] = sit(wp)
		admitted++
	}
	return admitted, ended, func() {
		for _, wp := range peers {
			wp.Close()
		}
	}
}
