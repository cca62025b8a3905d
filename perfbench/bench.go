package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"syscall"
	"time"
)

const (
	// minRepeats is the fewest full repeats a run makes, however short its
	// budget.
	minRepeats = 3
	// setupRepeats extra set-ups without a main call precede the full
	// repeats: set-up takes tens of milliseconds, so its median needs more
	// samples than the main call's.
	setupRepeats = 30
)

// sample is one repeat's measurements.
type sample struct {
	rep    int     // index of the repeat within its repeat call
	setup  float64 // seconds
	wall   float64 // seconds of the main call
	cpu    float64 // process user+sys seconds during the main call
	alloc  float64 // bytes allocated during the main call
	vsec   float64
	events uint64  // DES events the main call processed
	gcCPU  float64 // runtime/metrics GC CPU seconds during the main call
	useCPU float64 // runtime/metrics non-idle CPU seconds during the main call
}

// runner repeats one workload for one seed, checking every repeat.
type runner struct {
	w         workload
	seed      int64
	horizon   float64
	chk       checker
	tr        *tracer      // nil in untraced runs
	last      *instance    // the last repeat that passed its checks
	lastObs   observations // and its outputs
	attempted int
	failed    int
}

// setupOnly times one set-up and releases the instance unexecuted.
func (r *runner) setupOnly() (float64, bool) {
	r.attempted++
	runtime.GC()
	var in *instance
	t0 := time.Now()
	err := protect(func() (err error) {
		in, err = r.w.setup(r.seed, r.horizon)
		return err
	})
	d := time.Since(t0).Seconds()
	if err != nil {
		r.fail(err)
		return 0, false
	}
	in.close()
	return d, true
}

// once sets up and runs one repeat. around, when set, wraps the main call
// (the traced run profiles it there). It reports false when the repeat
// failed: an error, a panic, or outputs that fail the checks.
func (r *runner) once(around func(call func() error) error) (sample, bool) {
	r.last, r.lastObs = nil, observations{} // let the previous repeat be collected
	r.attempted++
	runtime.GC()
	var s sample
	rep := r.tr.begin("repeat", 0)
	defer r.tr.end(rep)
	id := r.tr.begin(r.w.name+".setup", rep)
	t0 := time.Now()
	var in *instance
	err := protect(func() (err error) {
		in, err = r.w.setup(r.seed, r.horizon)
		return err
	})
	s.setup = time.Since(t0).Seconds()
	r.tr.end(id)
	if err != nil {
		r.fail(err)
		return s, false
	}
	s.vsec = in.vsec
	call := func() error {
		id := r.tr.begin(r.w.name+".main", rep)
		defer r.tr.end(id)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		g0, u0 := gcCPU()
		c0 := cpuSeconds()
		w0 := time.Now()
		err := protect(in.execute)
		s.wall = time.Since(w0).Seconds()
		s.cpu = cpuSeconds() - c0
		g1, u1 := gcCPU()
		runtime.ReadMemStats(&m1)
		s.alloc = float64(m1.TotalAlloc - m0.TotalAlloc)
		s.gcCPU, s.useCPU = g1-g0, u1-u0
		return err
	}
	if around != nil {
		err = around(call)
	} else {
		err = call()
	}
	var o observations
	if err == nil {
		o = in.observe()
		err = r.chk.check(&o)
	}
	if err != nil {
		in.close()
		r.fail(err)
		return s, false
	}
	s.events = o.Events
	r.last, r.lastObs = in, o
	return s, true
}

func (r *runner) fail(err error) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d repeat %d failed: %v\n", r.w.name, r.seed, r.attempted, err)
}

// repeat runs full repeats until the budget would be overrun by one more
// (judged by the median repeat so far), and at least atLeast times, and
// returns the samples of those that passed. The i-th repeat's main call runs
// inside around(i, call) when around is set.
func (r *runner) repeat(budget time.Duration, atLeast int, around func(i int, call func() error) error) []sample {
	start := time.Now()
	var out []sample
	var took []time.Duration
	for i := 0; ; i++ {
		if i >= atLeast && time.Since(start)+median(took) > budget {
			return out
		}
		var wrap func(func() error) error
		if around != nil {
			wrap = func(call func() error) error { return around(i, call) }
		}
		t0 := time.Now()
		s, ok := r.once(wrap)
		took = append(took, time.Since(t0))
		if ok {
			s.rep = i
			out = append(out, s)
		}
	}
}

// endToEnd measures the workload for seconds of wall time and reports the
// end-to-end metrics as medians over its repeats.
func endToEnd(w workload, seed int64, seconds int, horizon float64) result {
	start := time.Now()
	r := &runner{w: w, seed: seed, horizon: horizon}
	var setups []float64
	for range setupRepeats {
		if d, ok := r.setupOnly(); ok {
			setups = append(setups, d)
		}
	}
	samples := r.repeat(time.Duration(seconds)*time.Second-time.Since(start), minRepeats, nil)
	var slow, cpu, alloc []float64
	for _, s := range samples {
		setups = append(setups, s.setup)
		slow = append(slow, s.wall/s.vsec)
		cpu = append(cpu, s.cpu/s.vsec)
		alloc = append(alloc, s.alloc/1e6)
	}
	return result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics: map[string]metric{
			"slowdown":     {median(slow), "s/s"},
			"cpu_per_vsec": {median(cpu), "s/s"},
			"setup_s":      {median(setups), "s"},
			"alloc_mb":     {median(alloc), "MB"},
			"peak_rss_mb":  {peakRSSMB(), "MB"},
		},
	}
}

// protect runs fn, turning a panic into an error.
func protect(fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return fn()
}

// median returns the middle value (the mean of the two middle values for an
// even count), or 0 for no values.
func median[T float64 | time.Duration](vs []T) T {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile by nearest rank, or 0 for no values.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[max(0, min(i, len(s)-1))]
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return ru
}

// cpuSeconds is the process's user+sys CPU time so far, all threads.
func cpuSeconds() float64 {
	ru := rusage()
	return time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime)).Seconds()
}

// peakRSSMB is the process's maximum resident set size in MB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	return float64(rusage().Maxrss) * 1024 / 1e6
}
