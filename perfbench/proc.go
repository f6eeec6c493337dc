package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// peakSegments is how many equal segments a measured window's peak RSS
// is sampled in. One peak over the whole window depends on where a
// garbage collection happened to land relative to an allocation burst;
// the median segment peak repeats much better.
const peakSegments = 5

// resetPeakRSS resets a process's peak resident set size (VmHWM) to its
// current RSS through /proc/<pid>/clear_refs; pid is a number or
// "self". Where the kernel refuses, the peak keeps covering what came
// before.
func resetPeakRSS(pid string) {
	_ = os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0) // best effort: see above
}

// peakSampler records a process's peak RSS per segment of a window.
type peakSampler struct {
	pid   string
	stopc chan struct{}
	done  chan struct{}
	peaks []float64
}

// samplePeaks resets pid's peak RSS now and after every segment, keeping
// each segment's peak, until stop.
func samplePeaks(pid string, segment time.Duration) *peakSampler {
	p := &peakSampler{pid: pid, stopc: make(chan struct{}), done: make(chan struct{})}
	resetPeakRSS(pid)
	go func() {
		defer close(p.done)
		tick := time.NewTicker(segment)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				p.peaks = append(p.peaks, p.read())
				resetPeakRSS(pid)
			case <-p.stopc:
				p.peaks = append(p.peaks, p.read())
				return
			}
		}
	}()
	return p
}

func (p *peakSampler) read() float64 { return vmHWM("/proc/" + p.pid + "/status") }

// stop ends sampling and returns the segment peaks in MiB.
func (p *peakSampler) stop() []float64 {
	close(p.stopc)
	<-p.done
	return p.peaks
}

// vmHWM reads the VmHWM line of a /proc/<pid>/status file, in MiB; 0
// when it cannot be read.
func vmHWM(path string) float64 {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
