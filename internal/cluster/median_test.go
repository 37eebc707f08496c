package cluster

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// medianJob runs maps, then reduces, each task reading a random number
// of bytes, so tasks complete in a random order with random durations;
// after every completion it calls check.
type medianJob struct {
	rng           *rand.Rand
	maps, reduces int
	mapsDone      int
	check         func(sub *Submission)
}

func (j *medianJob) Name() string { return "median" }

func (j *medianJob) tasks(kind TaskKind, n int) []*Task {
	tasks := make([]*Task, n)
	for i := range tasks {
		u := Usage{BytesRead: int64(j.rng.Intn(1000))}
		tasks[i] = &Task{Kind: kind, Name: fmt.Sprintf("%v%d", kind, i),
			Run: func(TaskContext) (Usage, error) { return u, nil }}
	}
	return tasks
}

func (j *medianJob) Start(*Submission) []*Task { return j.tasks(MapTask, j.maps) }

func (j *medianJob) TaskDone(sub *Submission, t *Task) []*Task {
	j.check(sub)
	if t.Kind == MapTask {
		if j.mapsDone++; j.mapsDone == j.maps {
			return j.tasks(ReduceTask, j.reduces)
		}
	}
	return nil
}

// sortedMedian is the median's definition: the durations of the
// completed tasks of the kind, sorted, the middle one (the upper of the
// two middle ones for an even count), or 0 below minSpeculationSamples.
func sortedMedian(sub *Submission, kind TaskKind) float64 {
	var ds []float64
	for _, c := range sub.CompletedTasks() {
		if c.Kind == kind {
			ds = append(ds, c.end-c.start)
		}
	}
	if len(ds) < minSpeculationSamples {
		return 0
	}
	sort.Float64s(ds)
	return ds[len(ds)/2]
}

// TestMedianDurationIsTheSortedMedian: with speculation on, the median
// it reads is the sort-based one after every completion of random jobs
// — both task kinds, odd and even counts, and counts under
// minSpeculationSamples, where it is 0.
func TestMedianDurationIsTheSortedMedian(t *testing.T) {
	counts := map[TaskKind]map[int]bool{MapTask: {}, ReduceTask: {}}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		j := &medianJob{rng: rng, maps: 1 + rng.Intn(12), reduces: 1 + rng.Intn(6)}
		j.check = func(sub *Submission) {
			for _, kind := range []TaskKind{MapTask, ReduceTask} {
				got, want := sub.medianDuration(kind), sortedMedian(sub, kind)
				if got != want {
					t.Fatalf("seed %d: %v median %v after %d completions, want %v", seed, kind, got, len(sub.CompletedTasks()), want)
				}
				counts[kind][len(sub.durations[kind])] = true
			}
		}
		cfg := smallConfig()
		cfg.SpeculativeBeta = 1e9 // the median is kept, and no backup ever launches
		sub := New(cfg).Submit(j)
		if err := sub.sim.Run(); err != nil {
			t.Fatal(err)
		}
		if len(sub.CompletedTasks()) != j.maps+j.reduces {
			t.Fatalf("seed %d: %d tasks completed, want %d", seed, len(sub.CompletedTasks()), j.maps+j.reduces)
		}
	}
	for _, kind := range []TaskKind{MapTask, ReduceTask} {
		for _, n := range []int{1, minSpeculationSamples - 1, minSpeculationSamples, minSpeculationSamples + 1, 6} {
			if !counts[kind][n] {
				t.Errorf("no %v median was checked over %d completions", kind, n)
			}
		}
	}
}
