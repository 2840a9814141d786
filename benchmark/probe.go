package main

import (
	"fmt"
	"math"
	"slices"
	"syscall"
	"time"
	"unsafe"

	"gammajoin/internal/walltime"
)

// The host this benchmark was calibrated on shares its processors and
// memory with other machines' work, and its speed drifts by ±20% over tens
// of seconds (README.md, "Host speed"). A fixed probe run next to every timed
// section measures that drift; the wall and CPU metrics are scaled by
// (probeRefMs ÷ the probe's time)^probeElasticity, so they read as times on
// the calibration host at its usual speed, and runs made while the host is
// busy and while it is idle agree.
//
// The probe is a small hash join written against the standard library only:
// it builds a map over probeInner records, probes it with probeOuter, sorts
// the matches and hands a quarter of the records to a second goroutine over
// a channel. It uses the host the way the simulator does (hashing, memory,
// sorting, goroutine hand-offs) but none of the simulator's code, so a
// change to the simulator does not move it.

// probeRefMs is the probe's median time over forty 25 s runs on the
// calibration host (2-core Xeon, 2.1 GHz).
const probeRefMs = 15.3

// The probe join's sizes, the paper's.
const (
	probeOuter = 100000
	probeInner = 10000
)

// probeRec is the size of a Wisconsin tuple, 208 bytes.
type probeRec struct {
	key int32
	pad [51]int32
}

// hostProbe keeps its records in memory mapped outside the Go heap and
// reuses its map, so that it allocates next to nothing: neither peak_heap_mb
// nor the collector's pacing of the simulator sees it.
type hostProbe struct {
	mapped       []byte
	outer, inner []probeRec // views of mapped
	matches      []probeRec // view of mapped, room for every inner record twice
	byKey        map[int32]*probeRec
	sink         int64 // keeps the work from being optimized away
}

func newHostProbe() (*hostProbe, error) {
	n := probeOuter + 3*probeInner
	mapped, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(probeRec{})),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("host probe: %w", err)
	}
	recs := unsafe.Slice((*probeRec)(unsafe.Pointer(&mapped[0])), n)
	h := &hostProbe{
		mapped:  mapped,
		outer:   recs[:probeOuter],
		inner:   recs[probeOuter : probeOuter+probeInner],
		matches: recs[probeOuter+probeInner : probeOuter+probeInner : n],
		byKey:   make(map[int32]*probeRec, probeInner),
	}
	x := uint64(1)
	for i := range h.outer {
		x = x*6364136223846793005 + 1442695040888963407
		h.outer[i].key = int32(x >> 33)
	}
	for i := range h.inner {
		h.inner[i].key = h.outer[i*(probeOuter/probeInner)].key
	}
	return h, nil
}

// run joins the probe's records once and returns how long that took.
func (h *hostProbe) run() time.Duration {
	start := walltime.Now()
	clear(h.byKey)
	for i := range h.inner {
		h.byKey[h.inner[i].key] = &h.inner[i]
	}
	matches := h.matches[:0]
	for i := range h.outer {
		if r, ok := h.byKey[h.outer[i].key]; ok {
			matches = append(matches, *r)
		}
	}
	slices.SortFunc(matches, func(a, b probeRec) int { return int(b.key) - int(a.key) })
	// The buffer lets the receiver drain in runs, as a site drains its
	// packet queue.
	ch := make(chan *probeRec, 64)
	sum := make(chan int64)
	go func() {
		var s int64
		for r := range ch {
			s += int64(r.key)
		}
		sum <- s
	}()
	for i := 0; i < len(h.outer); i += 4 {
		ch <- &h.outer[i]
	}
	close(ch)
	h.sink += <-sum + int64(len(matches))
	return walltime.Since(start)
}

// probeElasticity is how far the simulator's times follow the probe's: a
// regression of log run time on log probe time over forty 25 s runs, while
// the probe ranged from 10.5 to 16.7 ms, gave slopes of 0.79 to 0.92 on
// paper-local and remote-filtered (README.md, "Host speed").
const probeElasticity = 0.8

// scale is the factor that turns a time measured between probe times
// before and after into a time on the calibration host.
func scale(before, after time.Duration) float64 {
	return math.Pow(probeRefMs/(ms(before+after)/2), probeElasticity)
}

func (h *hostProbe) close() error { return syscall.Munmap(h.mapped) }
