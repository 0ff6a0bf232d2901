package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// rssSampler samples the process's resident set while an untraced timed
// phase runs. peak_rss_mb is the median, over the phase's one-second
// windows, of each window's largest sample: a peak the workload reaches
// again and again. The process's lifetime high-water mark would instead
// report whichever garbage-collection cycle happened to land worst.
type rssSampler struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64 // each full window's largest sample, MB
}

const (
	rssEvery  = 10 * time.Millisecond
	rssWindow = time.Second
)

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go s.run()
	return s
}

func (s *rssSampler) run() {
	defer close(s.done)
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return
	}
	defer f.Close()
	buf := make([]byte, 128)
	page := float64(os.Getpagesize()) / (1 << 20)
	tick := time.NewTicker(rssEvery)
	defer tick.Stop()
	window, peak := time.Now(), 0.0
	for {
		select {
		case <-s.stop:
			if len(s.peaks) == 0 && peak > 0 {
				s.peaks = append(s.peaks, peak) // a phase shorter than one window
			}
			return
		case now := <-tick.C:
			n, _ := f.ReadAt(buf, 0) // statm is shorter than buf: io.EOF is expected
			if fields := strings.Fields(string(buf[:n])); len(fields) > 1 {
				if pages, err := strconv.ParseFloat(fields[1], 64); err == nil {
					peak = max(peak, pages*page)
				}
			}
			if now.Sub(window) >= rssWindow {
				s.peaks = append(s.peaks, peak)
				window, peak = now, 0
			}
		}
	}
}

// stopMB stops sampling and returns the median window peak in MB; the
// process's lifetime peak where /proc is unavailable.
func (s *rssSampler) stopMB() float64 {
	close(s.stop)
	<-s.done
	if len(s.peaks) > 0 {
		return quantile(s.peaks, 0.5)
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
