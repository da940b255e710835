package experiments

import (
	"fmt"
	"math"
	"time"

	"hashcore/internal/baseline"
	"hashcore/internal/core"
	"hashcore/internal/gate"
	"hashcore/internal/perfprox"
	"hashcore/internal/pow"
	"hashcore/internal/randomxlite"
	"hashcore/internal/selection"
	"hashcore/internal/stats"
	"hashcore/internal/uarch"
	"hashcore/internal/vm"
	"hashcore/internal/workload"
)

// GenVsSelResult quantifies the §VI-A trade-off between runtime widget
// generation and pool selection.
type GenVsSelResult struct {
	PoolSize    int
	PoolStorage int           // bytes of encoded widgets (selection's storage cost)
	GenPerHash  time.Duration // generation cost paid per hash
	SelPerHash  time.Duration // selection cost paid per hash (index + reseed)
	ExecPerHash time.Duration // widget execution cost (common to both)
	GenExecFrac float64       // execution share of total time, generation variant
	SelExecFrac float64       // execution share of total time, selection variant
}

// GenVsSel measures the generation-vs-selection trade-off for the given
// pool sizes, returning one result per size.
func GenVsSel(profileName string, poolSizes []int, trials int, vp vm.Params) ([]GenVsSelResult, error) {
	w, err := workload.ByName(profileName)
	if err != nil {
		return nil, err
	}
	gen, err := perfprox.NewGenerator(w.Profile, perfprox.Params{})
	if err != nil {
		return nil, err
	}
	if trials < 1 {
		trials = 10
	}

	// Generation and execution cost (independent of pool size).
	var genTotal, execTotal time.Duration
	for i := 0; i < trials; i++ {
		var seed perfprox.Seed
		seed[0] = byte(i)
		seed[31] = byte(i >> 8)
		t0 := time.Now()
		p, err := gen.Generate(seed)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		if _, err := vm.Run(p, vp, nil); err != nil {
			return nil, err
		}
		genTotal += t1.Sub(t0)
		execTotal += time.Since(t1)
	}
	genPer := genTotal / time.Duration(trials)
	execPer := execTotal / time.Duration(trials)

	g := gate.SHA256{}
	results := make([]GenVsSelResult, 0, len(poolSizes))
	for _, size := range poolSizes {
		pool, err := selection.NewPool(w.Profile, perfprox.Params{}, size, 7, nil, vp)
		if err != nil {
			return nil, err
		}
		// Selection cost per hash is the non-execution work of the pool
		// variant: gate the header, pick the widget, reseed its memory
		// declaration. Timed directly (subtracting executions would put
		// millisecond-scale VM jitter on a microsecond-scale quantity).
		var selTotal, selExecTotal time.Duration
		for i := 0; i < trials; i++ {
			header := []byte{byte(i), byte(i >> 8), 0x55}
			t0 := time.Now()
			s := g.Sum(header)
			inst := pool.Instance(perfprox.Seed(s))
			t1 := time.Now()
			if _, err := vm.Run(inst, vp, nil); err != nil {
				return nil, err
			}
			t2 := time.Now()
			selTotal += t1.Sub(t0)
			selExecTotal += t2.Sub(t1)
		}
		selPer := selTotal / time.Duration(trials)
		selExecPer := selExecTotal / time.Duration(trials)
		poolPer := selPer + selExecPer
		results = append(results, GenVsSelResult{
			PoolSize:    size,
			PoolStorage: pool.StorageBytes(),
			GenPerHash:  genPer,
			SelPerHash:  selPer,
			ExecPerHash: execPer,
			GenExecFrac: frac(execPer, genPer+execPer),
			SelExecFrac: frac(selExecPer, poolPer),
		})
	}
	return results, nil
}

func frac(num, den time.Duration) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// RenderGenVsSel formats the ablation as a table.
func RenderGenVsSel(results []GenVsSelResult) string {
	t := stats.NewTable("pool", "storage(KB)", "gen/hash", "sel/hash", "exec/hash", "exec% (gen)", "exec% (sel)")
	for _, r := range results {
		t.AddRow(
			fmt.Sprintf("%d", r.PoolSize),
			fmt.Sprintf("%.1f", float64(r.PoolStorage)/1024),
			r.GenPerHash.Round(time.Microsecond).String(),
			r.SelPerHash.Round(time.Microsecond).String(),
			r.ExecPerHash.Round(time.Microsecond).String(),
			fmt.Sprintf("%.1f%%", r.GenExecFrac*100),
			fmt.Sprintf("%.1f%%", r.SelExecFrac*100),
		)
	}
	return t.String()
}

// ThroughputResult reports hashes/second for one PoW function.
type ThroughputResult struct {
	Name    string
	Hashes  int
	Elapsed time.Duration
	PerSec  float64
}

// BaselineThroughput races PoW functions for a fixed number of hashes
// each: SHA-256d, scrypt, RandomX-lite and HashCore. The absolute numbers
// are not the point (HashCore is supposed to be slow per hash — that IS
// the work); the comparison contextualizes the related-work discussion.
func BaselineThroughput(profileName string, hashes int, vp vm.Params) ([]ThroughputResult, error) {
	w, err := workload.ByName(profileName)
	if err != nil {
		return nil, err
	}
	hc, err := core.New(core.Options{Profile: w.Profile, VMParams: vp})
	if err != nil {
		return nil, err
	}
	rxl, err := randomxlite.NewHasher(randomxlite.Params{}, nil, vp)
	if err != nil {
		return nil, err
	}
	hashers := []pow.Hasher{
		baseline.SHA256d{},
		baseline.NewScrypt(1024, 1, 1),
		rxl,
		coreHasher{hc},
	}
	results := make([]ThroughputResult, 0, len(hashers))
	for _, h := range hashers {
		n := hashes
		// SHA-256d is ~6 orders of magnitude faster; scale its count so
		// the timing is meaningful without dominating wall-clock.
		if h.Name() == "sha256d" {
			n = hashes * 100000
		}
		if h.Name() == "scrypt" {
			n = hashes * 100
		}
		header := make([]byte, 80)
		start := time.Now()
		for i := 0; i < n; i++ {
			header[0], header[1], header[2] = byte(i), byte(i>>8), byte(i>>16)
			if _, err := h.Hash(header); err != nil {
				return nil, err
			}
		}
		elapsed := time.Since(start)
		results = append(results, ThroughputResult{
			Name:    h.Name(),
			Hashes:  n,
			Elapsed: elapsed,
			PerSec:  float64(n) / elapsed.Seconds(),
		})
	}
	return results, nil
}

// coreHasher adapts core.Func to pow.Hasher.
type coreHasher struct{ f *core.Func }

func (c coreHasher) Hash(header []byte) ([32]byte, error) { return c.f.Hash(header) }
func (c coreHasher) Name() string                         { return "hashcore-" + c.f.ProfileName() }

// RenderThroughput formats throughput results.
func RenderThroughput(results []ThroughputResult) string {
	t := stats.NewTable("pow function", "hashes", "elapsed", "hashes/sec")
	for _, r := range results {
		t.AddRow(r.Name, fmt.Sprintf("%d", r.Hashes),
			r.Elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.2f", r.PerSec))
	}
	return t.String()
}

// RandomXPopulation measures a population of uniform random-program
// widgets (the §VI-C alternative) with the same metrics as RunPopulation,
// so its IPC distribution can be contrasted with the profile-targeted one.
func RandomXPopulation(n int, masterSeed uint64, vp vm.Params) (*DistReport, error) {
	gen, err := randomxlite.NewGenerator(randomxlite.Params{})
	if err != nil {
		return nil, err
	}
	ipcs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		var seed [32]byte
		seed[0], seed[1], seed[8] = byte(i), byte(i>>8), byte(masterSeed)
		p, err := gen.Generate(seed)
		if err != nil {
			return nil, err
		}
		r, err := uarch.Measure("rxl", p, uarch.IvyBridge(), vp)
		if err != nil {
			return nil, err
		}
		ipcs = append(ipcs, r.IPC)
	}
	return distReport("RandomX-lite widget IPC (uniform generation)", ipcs, math.NaN()), nil
}
