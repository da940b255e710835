package pool

import (
	"sync"
	"testing"

	"hashcore/internal/blockchain"
)

func newTestJobManager(t *testing.T, retention int) (*JobManager, *stubSource) {
	t.Helper()
	src := &stubSource{bits: zeroBitsCompact(8), height: 3}
	jm, err := NewJobManager(src, zeroBitsCompact(4), 1000, retention)
	if err != nil {
		t.Fatal(err)
	}
	return jm, src
}

func TestJobManagerRefreshAndLookup(t *testing.T) {
	jm, _ := newTestJobManager(t, 4)
	if jm.Current() != nil {
		t.Fatal("current job before first refresh")
	}
	job, err := jm.Refresh(true)
	if err != nil {
		t.Fatal(err)
	}
	if jm.Current() != job {
		t.Fatal("Current does not return the refreshed job")
	}
	got, ok := jm.Lookup(job.ID)
	if !ok || got != job {
		t.Fatal("Lookup cannot find the current job")
	}
	if job.Height != 3 {
		t.Errorf("height = %d, want 3 (stub)", job.Height)
	}
	if len(job.Prefix) != blockchain.HeaderSize-8 {
		t.Errorf("prefix length = %d, want header minus nonce = %d",
			len(job.Prefix), blockchain.HeaderSize-8)
	}
	if job.ShareWork <= 0 {
		t.Error("job carries no share work")
	}
}

func TestJobIDsNeverReused(t *testing.T) {
	jm, _ := newTestJobManager(t, 2)
	seen := map[string]bool{}
	for i := 0; i < 10; i++ {
		job, err := jm.Refresh(i%2 == 0)
		if err != nil {
			t.Fatal(err)
		}
		if seen[job.ID] {
			t.Fatalf("job ID %q reused", job.ID)
		}
		seen[job.ID] = true
	}
}

func TestJobRetentionWindow(t *testing.T) {
	jm, _ := newTestJobManager(t, 2)
	j1, _ := jm.Refresh(false)
	j2, _ := jm.Refresh(false)
	j3, _ := jm.Refresh(false)
	if _, ok := jm.Lookup(j1.ID); ok {
		t.Error("job beyond the retention window still submittable")
	}
	for _, j := range []*Job{j2, j3} {
		if _, ok := jm.Lookup(j.ID); !ok {
			t.Errorf("job %s inside the retention window not found", j.ID)
		}
	}
}

func TestCleanRefreshDropsAllJobs(t *testing.T) {
	jm, _ := newTestJobManager(t, 4)
	j1, _ := jm.Refresh(false)
	j2, _ := jm.Refresh(false)
	j3, _ := jm.Refresh(true)
	for _, j := range []*Job{j1, j2} {
		if _, ok := jm.Lookup(j.ID); ok {
			t.Errorf("job %s survived a clean refresh", j.ID)
		}
	}
	if _, ok := jm.Lookup(j3.ID); !ok {
		t.Error("clean refresh lost its own job")
	}
}

func TestAssignRangeDisjoint(t *testing.T) {
	jm, _ := newTestJobManager(t, 2)
	job, _ := jm.Refresh(true)

	const (
		workers = 8
		perW    = 50
		size    = 1000
	)
	var mu sync.Mutex
	ranges := make([][2]uint64, 0, workers*perW)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				start, end := job.AssignRange(size)
				mu.Lock()
				ranges = append(ranges, [2]uint64{start, end})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	seen := make(map[uint64]bool, len(ranges))
	for _, r := range ranges {
		if r[1]-r[0] != size {
			t.Fatalf("range %v has size %d, want %d", r, r[1]-r[0], size)
		}
		if r[0]%size != 0 {
			t.Fatalf("range %v not aligned to the window size", r)
		}
		if seen[r[0]] {
			t.Fatalf("range starting at %d assigned twice", r[0])
		}
		seen[r[0]] = true
	}
}

func TestJobCleanFlag(t *testing.T) {
	jm, _ := newTestJobManager(t, 4)
	clean, _ := jm.Refresh(true)
	rolling, _ := jm.Refresh(false)
	if !clean.Clean {
		t.Error("clean refresh produced a job without the Clean flag")
	}
	if rolling.Clean {
		t.Error("rolling refresh produced a job with the Clean flag set")
	}
}
