package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// machine is the record every run prints, so a figure can be read
// against the hardware it came from.
type machine struct {
	cpu string
	l3  int64 // bytes; 0 when the kernel does not say
}

func readMachine() machine {
	m := machine{cpu: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index3/size"); err == nil {
		m.l3 = parseSize(strings.TrimSpace(string(b)))
	}
	return m
}

// parseSize reads the kernel's cache size notation, such as "107520K".
func parseSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return n * mult
}

func (m machine) l3String() string {
	if m.l3 == 0 {
		return "unknown"
	}
	return fmt.Sprintf("%.0fMiB", float64(m.l3)/(1<<20))
}

// share states bytes as a multiple of L3.
func (m machine) share(bytes int64) string {
	if m.l3 == 0 {
		return "unknown share"
	}
	return fmt.Sprintf("%.2fx", float64(bytes)/float64(m.l3))
}

// peakRSS is the process's peak resident set (VmHWM) in bytes.
func peakRSS() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb * 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
