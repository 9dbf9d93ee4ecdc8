// Command perfbench is the repository's benchmark. It runs one seeded
// workload of the DDR library end to end, checks every delivered byte,
// and prints one JSON result line:
//
//	perfbench --workload stack-load|fft-step|bounded-stream --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// with spans around every call into a layer and reports the per-layer
// metrics. METRICS.md lists every metric, its unit, and which end-to-end
// metric each layer metric should move on which workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupReps is how many worlds a run sets up; setup_s is their median.
const setupReps = 9

// endToEnd lists the metrics a --trace 0 run reports, in order.
var endToEnd = []string{"setup_s", "op_p50_ms", "op_p90_ms", "ops_per_s", "peak_rss_MB"}

// perLayer lists the metrics a --trace 1 run reports, in order.
var perLayer = []string{
	"tiff.read_ms", "tiff.decode_MBps",
	"core.mapping_ms", "core.rounds", "core.wire_MB", "core.self_MB", "core.per_rank_round_KB",
	"core.exchange_ms", "core.exchange_skew_ms", "core.pack_ms", "core.wire_ms", "core.unpack_ms", "core.overlap_ratio",
	"core.bounded_steps", "core.peak_staging_KB", "core.depth_used",
	"datatype.pack_GBps", "datatype.memmove_GBps", "datatype.pack_vs_memmove",
	"mpi.pingpong_us", "mpi.stream_GBps",
	"transit.send_ms", "transit.recv_ms",
	"fft.transpose_ms", "fft.compute_ms", "fft.hand_step_ms",
	"runtime.alloc_KB_per_op", "runtime.gc_per_op",
	"baseline.serial_ms", "baseline.noddr_load_ms",
	"tracing.overhead_pct", "traced_op_ms", "other_ms",
}

var workloadNames = []string{"stack-load", "fft-step", "bounded-stream"}

// newWorkload builds a workload at the input size the benchmark states.
func newWorkload(name string) (workload, error) {
	switch name {
	case "stack-load":
		return newStackLoad(256, 16), nil
	case "fft-step":
		return newFFTStep(512, 4, 16), nil
	case "bounded-stream":
		return newBoundedStream(2048, 8, 4, 1<<20), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 20, "length of the timed phase")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	dir := flag.String("dir", ".bench_build/perfbench", "directory for generated inputs and span files")
	flag.Parse()
	// One P: every rank and the host-speed kernel of calibrate.go then
	// run on the same vCPU stream, so the host's stolen time and slower
	// stretches reach both alike.
	runtime.GOMAXPROCS(1)
	w, err := newWorkload(*name)
	if err == nil && *seconds <= 0 {
		err = fmt.Errorf("--seconds must be positive")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	mach := readMachine()
	fmt.Printf("# machine: cpu=%q nproc=%d GOMAXPROCS=%d go=%s L3=%s\n",
		mach.cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), mach.l3String())
	fmt.Printf("# workload %s: seed=%d ranks=%d op input=%.1f MiB (%s of L3)\n",
		w.name(), *seed, w.ranks(), float64(w.inputBytes())/(1<<20), mach.share(w.inputBytes()))

	var res result
	if *traced != 0 {
		res, err = runTraced(w, uint64(*seed), *seconds, *dir)
	} else {
		res, err = runEndToEnd(w, uint64(*seed), *seconds, *dir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("# ops attempted=%d failed=%d failed_frac=%g\n", res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runEndToEnd sets the workload up setupReps times, times ops on the
// last world for seconds, and reports the end-to-end metrics.
func runEndToEnd(w workload, seed uint64, seconds float64, dir string) (result, error) {
	defer w.cleanup()
	if err := w.generate(seed, dir); err != nil {
		return result{}, fmt.Errorf("generate inputs: %w", err)
	}
	// Where set-up is compute, each set-up is scaled to the host's usual
	// speed, as the ops are, by kernel runs just before it.
	cal := newCalibrator()
	var setups, rawSetups []float64
	var ph *phase
	for i := 0; i < setupReps; i++ {
		var cfg *runConfig
		if i == setupReps-1 {
			cfg = &runConfig{seconds: seconds, corruptOp: -1, origin: time.Now()}
		}
		scale := 1.0
		if w.setupIsCompute() {
			scale = cal.scaleNow()
		}
		s, _, p, err := world(w, cfg)
		if err != nil {
			return result{}, err
		}
		setups, rawSetups = append(setups, s.Seconds()*scale), append(rawSetups, s.Seconds())
		ph = p
	}
	if ph.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: wrong bytes delivered:", ph.firstErr)
	}
	m := metrics{}
	endToEndMetrics(m, ph)
	m.set("setup_s", median(setups), "s")
	rss, err := peakRSS()
	if err != nil {
		return result{}, err
	}
	m.set("peak_rss_MB", rss/1e6, "MB")
	fmt.Printf("# samples=%d op_p90 has %d samples beyond it\n", len(ph.ops), len(ph.ops)/10)
	raw := make([]float64, len(ph.ops))
	for i, d := range ph.ops {
		raw[i] = ms(d)
	}
	fmt.Printf("# host speed: op times scaled by %.3f (median; calibrate.go); unscaled op_p50_ms=%.3f op_p90_ms=%.3f setup_s=%.4f\n",
		median(append([]float64(nil), ph.scales...)), quantile(raw, 0.5), quantile(raw, 0.9), median(rawSetups))
	return finish(m, endToEnd, ph.tried, ph.failed)
}

// endToEndMetrics reports the op times of ph, each scaled to the host's
// usual speed by the factor calibrate.go measured around it.
func endToEndMetrics(m metrics, ph *phase) {
	xs := make([]float64, len(ph.ops))
	var total float64
	for i, d := range ph.ops {
		xs[i] = ms(d) * ph.scales[i]
		total += xs[i]
	}
	m.set("op_p50_ms", quantile(xs, 0.5), "ms")
	m.set("op_p90_ms", quantile(xs, 0.9), "ms")
	// Time between ops, spent checking the delivered bytes and timing the
	// kernel of calibrate.go, is not counted.
	m.set("ops_per_s", float64(len(ph.ops))/(total/1e3), "1/s")
}

// tracedRounds is how many untraced and traced worlds a traced run
// alternates, so that drift in the machine's speed during the run
// falls on both sides of tracing.overhead_pct alike.
const tracedRounds = 3

// runTraced alternates untraced and traced worlds for seconds in all
// and reports the per-layer metrics. A layer the workload does not run
// is measured on the workload that does, and the run says so on
// standard output.
func runTraced(w workload, seed uint64, seconds float64, dir string) (result, error) {
	defer w.cleanup()
	if err := w.generate(seed, dir); err != nil {
		return result{}, fmt.Errorf("generate inputs: %w", err)
	}
	origin := time.Now()
	chunk := seconds / (2 * tracedRounds)
	var plain, ph *phase
	var facts []rankFacts
	for i := 0; i < tracedRounds; i++ {
		_, _, p, err := world(w, &runConfig{seconds: chunk, corruptOp: -1, origin: origin})
		if err != nil {
			return result{}, err
		}
		plain = plain.merge(p)
		_, f, t, err := world(w, &runConfig{seconds: chunk, traced: true, corruptOp: -1, origin: origin})
		if err != nil {
			return result{}, err
		}
		ph, facts = ph.merge(t), f
	}
	m := metrics{}
	if err := spanMetrics(m, w, ph, facts); err != nil {
		return result{}, err
	}
	tried, failed := plain.tried+ph.tried, plain.failed+ph.failed
	for _, p := range []*phase{plain, ph} {
		if p.firstErr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: wrong bytes delivered:", p.firstErr)
		}
	}
	if err := writeSpans(filepath.Join(dir, fmt.Sprintf("spans-%s-%d.json", w.name(), seed)), ph); err != nil {
		return result{}, err
	}
	m.set("runtime.alloc_KB_per_op", plain.allocKB, "KB")
	m.set("runtime.gc_per_op", plain.gcPerOp, "count")
	un := metrics{}
	endToEndMetrics(un, plain)
	tr := metrics{}
	endToEndMetrics(tr, ph)
	m.set("tracing.overhead_pct", (tr["op_p50_ms"].value/un["op_p50_ms"].value-1)*100, "%")
	if err := probeLayers(m, w, facts); err != nil {
		return result{}, err
	}

	// Fill each absent metric from the first workload that measures it.
	for _, other := range workloadNames {
		if other == w.name() || !anyAbsent(m) {
			continue
		}
		ow, _ := newWorkload(other)
		om, oph, err := sidePass(ow, seed, dir, min(2, seconds/2), origin)
		if err != nil {
			return result{}, fmt.Errorf("%s: %w", other, err)
		}
		tried, failed = tried+oph.tried, failed+oph.failed
		if oph.firstErr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s delivered wrong bytes: %v\n", other, oph.firstErr)
		}
		for _, name := range perLayer {
			if cur, ok := m[name]; ok && cur.absent != "" {
				if got, ok := om[name]; ok && got.absent == "" {
					fmt.Printf("# %s: absent on %s (%s); value measured on %s\n", name, w.name(), cur.absent, other)
					m[name] = got
				}
			}
		}
	}
	return finish(m, perLayer, tried, failed)
}

// sidePass runs one short traced world of w, for the layers the
// reported workload does not run.
func sidePass(w workload, seed uint64, dir string, seconds float64, origin time.Time) (metrics, *phase, error) {
	defer w.cleanup()
	if err := w.generate(seed, dir); err != nil {
		return nil, nil, fmt.Errorf("generate inputs: %w", err)
	}
	_, facts, ph, err := world(w, &runConfig{seconds: seconds, traced: true, corruptOp: -1, origin: origin})
	if err != nil {
		return nil, nil, err
	}
	m := metrics{}
	if err := spanMetrics(m, w, ph, facts); err != nil {
		return nil, nil, err
	}
	return m, ph, extraLayers(m, w)
}

// probeLayers measures the layers the op loop cannot isolate: the pack
// kernel and the transport, each at the workload's own shapes, and the
// single-goroutine baseline.
func probeLayers(m metrics, w workload, facts []rankFacts) error {
	packGBps, copyGBps, bytes := packProbe(w.geometries(), 5)
	m.set("datatype.pack_GBps", packGBps, "GB/s")
	m.set("datatype.memmove_GBps", copyGBps, "GB/s")
	m.set("datatype.pack_vs_memmove", packGBps/copyGBps, "ratio")
	fmt.Printf("# datatype probe moves %.1f MiB per pass (%s of L3)\n", float64(bytes)/(1<<20), readMachine().share(bytes))

	msg := messageSize(facts)
	ping, stream, err := mpiProbe(w.launchOptions(), msg)
	if err != nil {
		return fmt.Errorf("mpi probe: %w", err)
	}
	fmt.Printf("# mpi probe: 2 ranks, %d-byte messages\n", msg)
	m.set("mpi.pingpong_us", ping, "us")
	m.set("mpi.stream_GBps", stream, "GB/s")

	var serial []float64
	for i := 0; i < 3; i++ {
		d, err := w.serial()
		if err != nil {
			return fmt.Errorf("serial baseline: %w", err)
		}
		serial = append(serial, ms(d))
	}
	m.set("baseline.serial_ms", median(serial), "ms")
	return extraLayers(m, w)
}

// extraLayers measures the baselines only one workload has.
func extraLayers(m metrics, w workload) error {
	switch w := w.(type) {
	case *stackLoad:
		var xs []float64
		for i := 0; i < 3; i++ {
			d, err := w.noDDR()
			if err != nil {
				return fmt.Errorf("no-DDR loader: %w", err)
			}
			xs = append(xs, ms(d))
		}
		m.set("baseline.noddr_load_ms", median(xs), "ms")
	default:
		m.absent("baseline.noddr_load_ms", "ms", "loads no TIFF stack")
	}
	if w, ok := w.(*fftStep); ok {
		d, err := w.handStep(20)
		if err != nil {
			return fmt.Errorf("hand-written step: %w", err)
		}
		m.set("fft.hand_step_ms", ms(d), "ms")
	} else {
		m.absent("fft.hand_step_ms", "ms", "runs no FFT")
	}
	return nil
}

// messageSize is the workload's typical message: the largest per-rank
// per-round send split over the peers of a round.
func messageSize(facts []rankFacts) int {
	size := 0
	for _, f := range facts {
		for _, s := range f.stats {
			if s.maxPeers > 0 {
				size = max(size, int(s.roundMax)/s.maxPeers)
			}
		}
	}
	return max(size, 1)
}

func anyAbsent(m metrics) bool {
	for _, v := range m {
		if v.absent != "" {
			return true
		}
	}
	return false
}

// finish keeps exactly the named metrics. A metric still absent is a
// benchmark bug, not a measurement, so it fails the run.
func finish(m metrics, names []string, tried, failed int) (result, error) {
	res := result{Correct: failed == 0 && tried > 0, Attempted: tried, Failed: failed, Metrics: map[string]jsonMetric{}}
	var missing []string
	for _, name := range names {
		v, ok := m[name]
		if !ok || v.absent != "" {
			missing = append(missing, name)
			continue
		}
		res.Metrics[name] = jsonMetric{Value: v.value, Unit: v.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return res, fmt.Errorf("no value for %s", strings.Join(missing, ", "))
	}
	return res, nil
}

// writeSpans writes every span of a traced phase as one JSON array.
func writeSpans(path string, ph *phase) error {
	var all []span
	for _, list := range ph.spans {
		all = append(all, list...)
	}
	buf, err := json.Marshal(all)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("# spans: %d written to %s\n", len(all), path)
	return nil
}
