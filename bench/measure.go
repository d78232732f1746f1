package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// config is one benchmark invocation.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	spans   string
	// smoke shrinks every workload to a few inputs and runs each pass once;
	// the tests use it.
	smoke bool
}

// A run sets its workload up at least setupRuns times, and keeps setting it
// up until setupBudget has passed; setup_s is the median. A set-up of a few
// milliseconds then still has enough samples for its median to repeat.
const (
	setupRuns   = 3
	setupBudget = 250 * time.Millisecond
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// samples is how many measurements the value summarizes.
	samples int
}

// result is what one run of one workload reports.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// order is the print order of Metrics.
	order []string
	// firstFailure describes the first decision that failed.
	firstFailure string
}

func (r *result) add(name string, value float64, unit string, samples int) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: value, Unit: unit, samples: samples}
	r.order = append(r.order, name)
}

// passStats is what one pass over a workload's inputs measured.
type passStats struct {
	// decisions is the number of verdicts the pass produced: histories
	// checked, or prefixes for the monitor.
	decisions int
	// wall is the pass's wall time. Witnesses are validated after it ends.
	wall time.Duration
	// calls holds one latency per public call.
	calls []time.Duration
}

// runWorkload sets the workload up setupRuns times, then runs passes over its
// inputs for cfg.seconds: untraced passes for the end-to-end metrics, or
// untraced and traced passes in turn for the per-layer metrics.
func runWorkload(w workload, cfg config) (result, error) {
	var inst instance
	var setups, gens, refs []float64
	setupStart := time.Now()
	for {
		inst = nil
		runtime.GC()
		start := time.Now()
		var err error
		inst, err = w.setup(cfg.seed, cfg.smoke)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		gen, ref := inst.setupTimes()
		gens = append(gens, gen.Seconds())
		refs = append(refs, ref.Seconds())
		if cfg.smoke || len(setups) >= setupRuns && time.Since(setupStart) >= setupBudget {
			break
		}
	}

	v := &verifier{}
	res := result{}
	// The first quarter of the timed phase warms up: its passes run and are
	// verified but not measured. Right after set-up, passes fault back in the
	// heap set-up freed, and on the batch workloads ran up to 30% slower for
	// their first few seconds.
	timed := time.Duration(cfg.seconds * float64(time.Second))
	warm, deadline := time.Now().Add(timed/4), time.Now().Add(timed)
	warming := func() bool { return !cfg.smoke && time.Now().Before(warm) }
	more := func(measured int) bool { return measured == 0 || (!cfg.smoke && time.Now().Before(deadline)) }
	if !cfg.trace {
		var passes []passStats
		for more(len(passes)) {
			w := warming()
			runtime.GC()
			st := inst.pass(v)
			if !w {
				passes = append(passes, st)
			}
		}
		rss, err := peakRSSMB()
		if err != nil {
			return result{}, err
		}
		// Each figure is taken per pass, and the median over the passes is
		// reported: host contention that slows a minority of the passes
		// leaves it alone.
		var rates, p50s, p95s []float64
		for _, st := range passes {
			sortDurations(st.calls)
			rates = append(rates, float64(st.decisions)/st.wall.Seconds())
			p50s = append(p50s, ms(quantile(st.calls, 0.50)))
			p95s = append(p95s, ms(quantile(st.calls, 0.95)))
		}
		res.add("setup_s", median(setups), "s", len(setups))
		res.add("decisions_per_s", median(rates), "1/s", len(passes))
		res.add("call_p50_ms", median(p50s), "ms", len(passes))
		res.add("call_p95_ms", median(p95s), "ms", len(passes))
		res.add("peak_rss_mb", rss, "MB", 1)
	} else {
		t := newTracer(cfg.spans)
		var plain, traced []float64
		var first counts
		for n := 0; more(len(traced)); n++ {
			w := warming()
			runtime.GC()
			st := inst.pass(v)
			runtime.GC()
			wall, c := inst.tracedPass(t, v)
			if n == 0 {
				first = c
				if err := t.flush(); err != nil {
					return result{}, err
				}
			}
			if w {
				t.agg = layerAgg{}
				continue
			}
			plain = append(plain, st.wall.Seconds())
			traced = append(traced, wall.Seconds())
		}
		res.add("setup.generate_s", median(gens), "s", len(gens))
		res.add("setup.reference_s", median(refs), "s", len(refs))
		res.add("trace.overhead_frac", median(traced)/median(plain)-1, "frac", len(traced))
		layerMetrics(&res, t.agg, first, len(traced), median(plain))
	}
	res.Attempted, res.Failed, res.firstFailure = v.attempted, v.failed, v.first
	res.Correct = v.attempted > 0 && v.failed == 0
	return res, nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak_rss_mb: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak_rss_mb: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak_rss_mb: %w", err)
	}
	return 0, fmt.Errorf("peak_rss_mb: no VmHWM line in /proc/self/status")
}

// median returns the median of xs (the mean of the middle two for an even
// count), without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortDurations(ds []time.Duration) {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
}

// quantile returns the nearest-rank p-quantile of sorted durations.
func quantile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
