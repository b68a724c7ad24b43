package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// rssSampler reads the process's resident memory every rssPeriod while
// the timed work runs. rss_mb reports the mean: it is steady from run to
// run, where the peak is not. A workload that fans simulations out over
// two workers reaches a different peak every run, depending on which
// simulations happen to overlap when the collector runs; on paper-quick
// the peak spread by 11-20% over ten seeds, the mean by about 5%.
type rssSampler struct {
	stop, done chan struct{}
	samples    []float64 // MB
}

const rssPeriod = 50 * time.Millisecond

// startRSS takes a first sample and starts sampling in the background
// until finish.
func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go s.loop()
	return s
}

func (s *rssSampler) loop() {
	defer close(s.done)
	tick := time.NewTicker(rssPeriod)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
			s.sample()
		}
	}
}

// finish stops the sampler, takes a last sample, and returns the mean
// resident memory in MB, or 0 where /proc/self/statm cannot be read.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	s.sample()
	if len(s.samples) == 0 {
		return 0
	}
	return sum(s.samples) / float64(len(s.samples))
}

// sample appends the resident set size from /proc/self/statm (its second
// field, in pages).
func (s *rssSampler) sample() {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return
	}
	fields := strings.Fields(string(raw))
	if len(fields) < 2 {
		return
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return
	}
	s.samples = append(s.samples, float64(pages)*float64(os.Getpagesize())/1e6)
}
