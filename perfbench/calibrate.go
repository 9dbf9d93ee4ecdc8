package main

import (
	"math"
	"math/cmplx"
	"time"
)

// The host this benchmark runs on shares its cores with other tenants.
// How hard they work changes the speed of the same code by a quarter or
// more, in stretches of seconds to minutes, and the hypervisor takes
// whole slices of time from the guest's vCPUs. So before every timed op
// the benchmark times a fixed kernel of its own and scales the op's time
// by how much slower than calRef the kernel ran around it: the op times
// it reports are those of the host at its usual speed. The benchmark
// runs on one P, so the kernel and the ops run on the same vCPU stream
// and lose time to the host alike. The kernel is arithmetic on complex
// numbers in a cache-resident array, so that where the process's memory
// lands does not change its speed, and it shares no code with the
// program, so a change to the program cannot move it.

// calRef is the kernel's time on the 2-vCPU Xeon guest of METRICS.md at
// its usual speed.
const calRef = 2100 * time.Microsecond

// calWindow is how many kernel times, centred on an op, its scale takes
// the mean of. The mean, not the median: time the host takes away lands
// on a kernel run in proportion to its length, as it does on an op.
const calWindow = 17

const (
	calPoints = 4096 // complex128 points per FFT: 64 KiB
	calFFTs   = 16
)

// calibrator holds the kernel's inputs.
type calibrator struct {
	twiddle []complex128
	input   []complex128
	work    []complex128
}

func newCalibrator() *calibrator {
	k := &calibrator{
		twiddle: make([]complex128, calPoints/2),
		input:   make([]complex128, calPoints),
		work:    make([]complex128, calPoints),
	}
	for i := range k.twiddle {
		k.twiddle[i] = cmplx.Exp(complex(0, -2*math.Pi*float64(i)/calPoints))
	}
	for i := range k.input {
		k.input[i] = complex(float64(i%7), 1)
	}
	return k
}

// time runs the kernel once and returns its time. Every run transforms
// the same input, so every run does the same arithmetic.
func (k *calibrator) time() time.Duration {
	start := time.Now()
	for i := 0; i < calFFTs; i++ {
		copy(k.work, k.input)
		calFFT(k.work, k.twiddle)
	}
	return time.Since(start)
}

// scales turns the kernel time taken before each op into the factor the
// op's time is multiplied by: calRef over the mean kernel time of the
// calWindow readings centred on the op, so that a change of host speed is
// seen on both sides of it.
func scales(cal []time.Duration) []float64 {
	out := make([]float64, len(cal))
	for i := range cal {
		lo, hi := max(0, i-calWindow/2), min(len(cal), i+calWindow/2+1)
		var sum time.Duration
		for _, d := range cal[lo:hi] {
			sum += d
		}
		out[i] = float64(calRef) / (float64(sum) / float64(hi-lo))
	}
	return out
}

// setupCalRuns is how many kernel runs scale one set-up.
const setupCalRuns = 4

// scaleNow runs the kernel setupCalRuns times and returns calRef over
// their mean time: the factor for work timed right after.
func (k *calibrator) scaleNow() float64 {
	var sum time.Duration
	for i := 0; i < setupCalRuns; i++ {
		sum += k.time()
	}
	return float64(calRef) / (float64(sum) / setupCalRuns)
}

// calFFT is an in-place radix-2 FFT, written here rather than taken
// from internal/fft so that the kernel stays fixed while the program
// changes.
func calFFT(x, twiddle []complex128) {
	n := len(x)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half, step := size/2, n/size
		for i := 0; i < n; i += size {
			for k := 0; k < half; k++ {
				t := twiddle[k*step] * x[i+k+half]
				x[i+k+half] = x[i+k] - t
				x[i+k] += t
			}
		}
	}
}
