package lab

import (
	"fmt"
	"sort"
	"time"

	"hashcore/internal/p2p"
)

// Result is one scenario's outcome, shaped for the CLI runner: OK is
// the pass/fail verdict and Detail the one-line human story.
type Result struct {
	Name     string
	Nodes    int
	OK       bool
	Detail   string
	Duration time.Duration
}

// scenario is one registered lab run: sensible default size plus the
// body. Bodies return (ok, detail).
type scenario struct {
	defaultNodes int
	describe     string
	run          func(nodes int, logf func(string, ...any)) (bool, string)
}

// scenarios is the catalog (see DESIGN.md §11). Keys are the -simnet
// flag values.
var scenarios = map[string]scenario{
	"partition": {100, "split an N-node network, mine on both sides, heal, expect one heaviest tip",
		runPartition},
	"churn": {50, "cycle nodes down/up while mining, expect convergence after the churn",
		runChurn},
	"flood": {5, "an adversary floods one node until rate-limited and banned; honest blocks still propagate",
		runFlood},
	"eclipse": {3, "20 attacker hosts race for a victim's peer slots; outbound reserve keeps it syncing",
		runEclipse},
	"orphan-flood": {2, "an adversary serves an unconnectable descendancy; per-peer orphan quota holds and the host is banned",
		runOrphanFlood},
	"handshake-abuse": {1, "connect-and-stall and slow-loris hellos; the handshake timeout frees slots for honest peers",
		runHandshakeAbuse},
}

// Scenarios lists the catalog names, sorted.
func Scenarios() []string {
	out := make([]string, 0, len(scenarios))
	for name := range scenarios {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Describe returns the one-line description of a scenario ("" when
// unknown).
func Describe(name string) string { return scenarios[name].describe }

// Run executes one catalog scenario at the given size (nodes <= 0
// selects the scenario's default).
func Run(name string, nodes int, logf func(string, ...any)) (*Result, error) {
	sc, ok := scenarios[name]
	if !ok {
		return nil, fmt.Errorf("lab: unknown scenario %q (have %v)", name, Scenarios())
	}
	if nodes <= 0 {
		nodes = sc.defaultNodes
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	start := time.Now()
	passed, detail := sc.run(nodes, logf)
	return &Result{
		Name:     name,
		Nodes:    nodes,
		OK:       passed,
		Detail:   detail,
		Duration: time.Since(start),
	}, nil
}

// waitUntil polls cond every 10ms until it holds or timeout passes.
func waitUntil(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
	return true
}

func runPartition(nodes int, logf func(string, ...any)) (bool, string) {
	if nodes < 4 {
		nodes = 4
	}
	c, err := New(Options{Nodes: nodes, Latency: time.Millisecond})
	if err != nil {
		return false, err.Error()
	}
	defer c.Close()
	tip, err := c.Mine(0, 3)
	if err != nil {
		return false, err.Error()
	}
	if !c.WaitConverged(tip, 60*time.Second) {
		return false, "initial convergence failed"
	}
	logf("lab: %d nodes converged; partitioning into halves", nodes)
	half := nodes / 2
	names := c.Names()
	c.Net.Partition(names[:half], names[half:])
	// Both halves keep mining; the right one mines more, so its branch
	// is heavier and must win everywhere after the heal.
	leftTip, err := c.Mine(0, 2)
	if err != nil {
		return false, err.Error()
	}
	heavier, err := c.Mine(half, 4)
	if err != nil {
		return false, err.Error()
	}
	if !waitUntil(60*time.Second, func() bool { return allAt(c.Nodes[:half], leftTip) }) {
		return false, "left half did not converge on its own tip while split"
	}
	logf("lab: healing; heavier branch is %x…", heavier[:8])
	c.Net.Heal()
	if !c.WaitConverged(heavier, 120*time.Second) {
		return false, "post-heal convergence failed"
	}
	return true, fmt.Sprintf("%d nodes re-converged on the heavier branch after partition+heal", nodes)
}

func runChurn(nodes int, logf func(string, ...any)) (bool, string) {
	if nodes < 8 {
		nodes = 8
	}
	c, err := New(Options{Nodes: nodes})
	if err != nil {
		return false, err.Error()
	}
	defer c.Close()
	tip := c.Nodes[0].Chain.TipID()
	for round := 0; round < 3; round++ {
		down := []int{}
		for k := 0; k < nodes/10+1; k++ {
			down = append(down, 1+(round*17+k*7)%(nodes-1))
		}
		for _, i := range down {
			c.Net.Down(c.Nodes[i].Name)
		}
		logf("lab: churn round %d: %d nodes down", round, len(down))
		if tip, err = c.Mine(0, 2); err != nil {
			return false, err.Error()
		}
		time.Sleep(100 * time.Millisecond)
		for _, i := range down {
			c.Net.Up(c.Nodes[i].Name)
		}
	}
	if !c.WaitConverged(tip, 120*time.Second) {
		return false, "post-churn convergence failed"
	}
	return true, fmt.Sprintf("%d nodes converged through 3 rounds of churn", nodes)
}

func runFlood(nodes int, logf func(string, ...any)) (bool, string) {
	c, err := New(Options{
		Nodes: nodes,
		P2P:   p2p.Config{MsgRate: 200, BanThreshold: 50},
	})
	if err != nil {
		return false, err.Error()
	}
	defer c.Close()
	adv := NewAdversary(c, "flooder")
	sent := adv.FloodInvs(c.Nodes[0].Addr(), 50000)
	if sent >= 50000 {
		return false, "flood was never cut off"
	}
	logf("lab: flooder cut off after %d invs", sent)
	if !waitUntil(30*time.Second, func() bool { return c.Nodes[0].Mgr.Banned("flooder") }) {
		return false, "flooder was not banned"
	}
	// The victim's telemetry must tell the same story an operator would
	// read off /metrics: rate-limit disconnects and a ban were counted.
	drops := c.Metric(0, "p2p_ratelimit_disconnects_total")
	if drops < 1 {
		return false, fmt.Sprintf("p2p_ratelimit_disconnects_total = %v, want >= 1", drops)
	}
	if bans := c.Metric(0, "p2p_bans_total"); bans < 1 {
		return false, fmt.Sprintf("p2p_bans_total = %v, want >= 1", bans)
	}
	// A banned host cannot come back for more: the victim refuses it at
	// accept, or ends any session it lets complete.
	if wp, _, err := adv.session(c.Nodes[0].Addr()); err == nil {
		select {
		case <-sit(wp):
		case <-time.After(10 * time.Second):
			wp.Close()
			return false, "banned flooder held a new session"
		}
	}
	tip, err := c.Mine(nodes/2, 3)
	if err != nil {
		return false, err.Error()
	}
	if !c.WaitConverged(tip, 60*time.Second) {
		return false, "honest convergence failed after the flood"
	}
	return true, fmt.Sprintf("flooder banned after %d invs (%.0f rate-limit drops metered); honest nodes converged", sent, drops)
}

func runEclipse(nodes int, logf func(string, ...any)) (bool, string) {
	c, err := New(Options{
		Nodes: nodes,
		Chord: -1,
		P2P:   p2p.Config{MaxPeers: 8, OutboundReserved: 2, MaxInboundPerHost: 1},
	})
	if err != nil {
		return false, err.Error()
	}
	defer c.Close()
	victim := c.Nodes[0]
	admitted, ended, closeAll := OccupySlots(c, victim.Addr(), 20)
	defer closeAll()
	// Wait for every attacker's outcome: listed as an inbound peer of
	// the victim, or cut off. The victim applies the inbound cap under
	// one lock as it admits a peer, so once all 20 have their outcome no
	// attacker can still slip in and the count is final.
	inbound := 0
	settled := waitUntil(30*time.Second, func() bool {
		listed := make(map[string]bool)
		inbound = 0
		for _, pi := range victim.Mgr.Peers() {
			if pi.Inbound {
				listed[pi.Host] = true
				inbound++
			}
		}
		for host, done := range ended {
			select {
			case <-done:
			default:
				if !listed[host] {
					return false
				}
			}
		}
		return true
	})
	if !settled {
		return false, "an attacker was neither admitted nor cut off"
	}
	logf("lab: %d attacker handshakes, %d inbound sessions held", admitted, inbound)
	if inbound > 6 {
		return false, fmt.Sprintf("%d inbound sessions exceed the 6-slot cap", inbound)
	}
	// The victim's own outbound session survives the squeeze.
	if !waitUntil(30*time.Second, func() bool {
		for _, pi := range victim.Mgr.Peers() {
			if !pi.Inbound {
				return true
			}
		}
		return false
	}) {
		return false, "victim lost its outbound session"
	}
	tip, err := c.Mine(1, 2)
	if err != nil {
		return false, err.Error()
	}
	if !waitUntil(60*time.Second, func() bool { return victim.Chain.TipID() == tip }) {
		return false, "victim failed to sync through the reserve"
	}
	return true, fmt.Sprintf("20 attackers held %d/6 inbound slots; victim synced via outbound reserve", inbound)
}

func runOrphanFlood(nodes int, logf func(string, ...any)) (bool, string) {
	c, err := New(Options{Nodes: nodes, MaxOrphans: 32, MaxOrphansPerPeer: 4})
	if err != nil {
		return false, err.Error()
	}
	defer c.Close()
	victim := c.Nodes[0]
	go NewAdversary(c, "withholder").ServeOrphanChain(victim.Addr(), 8, 200)
	if !waitUntil(60*time.Second, func() bool { return victim.Mgr.Banned("withholder") }) {
		return false, "withholder was not banned"
	}
	parked := victim.Chain.OrphanCountFrom("withholder")
	logf("lab: withholder banned with %d orphans parked", parked)
	if parked > 4 {
		return false, fmt.Sprintf("%d orphans parked exceed the per-peer quota 4", parked)
	}
	if pooled := victim.Chain.OrphanCount(); pooled > 4 {
		return false, fmt.Sprintf("the orphan pool holds %d, want at most 4", pooled)
	}
	return true, fmt.Sprintf("withholder banned; %d/4 orphan quota used", parked)
}

func runHandshakeAbuse(nodes int, logf func(string, ...any)) (bool, string) {
	c, err := New(Options{
		Nodes: nodes,
		P2P:   p2p.Config{MaxPeers: 4, HandshakeTimeout: 200 * time.Millisecond},
	})
	if err != nil {
		return false, err.Error()
	}
	defer c.Close()
	victim := c.Nodes[0]
	squat := NewAdversary(c, "squatter")
	var closers []func()
	for i := 0; i < 10; i++ {
		if closer, err := squat.HoldHandshake(victim.Addr()); err == nil {
			closers = append(closers, closer)
		}
	}
	defer func() {
		for _, cl := range closers {
			cl()
		}
	}()
	go NewAdversary(c, "loris").SlowLorisHello(victim.Addr(), 50*time.Millisecond)

	honest := NewAdversary(c, "honest")
	ok := waitUntil(30*time.Second, func() bool {
		wp, _, err := honest.session(victim.Addr())
		if err != nil {
			return false
		}
		defer wp.Close()
		return waitUntil(2*time.Second, func() bool {
			for _, pi := range victim.Mgr.Peers() {
				if pi.Host == "honest" {
					return true
				}
			}
			return false
		})
	})
	if !ok {
		return false, "honest peer never got past the squatters"
	}
	return true, "handshake timeout cleared the squatters; honest peer admitted"
}
