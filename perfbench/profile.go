package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// A traced run profiles each timed pass on its own, so the untimed
// work between passes (the forced collection, building the next pass's
// machines, checking outputs) stays out of the profile. `go tool pprof
// -traces` merges the passes' profiles and prints every sample's stack,
// which is all the bucketing below needs.

// profSample is one profile sample: its stack as function names, leaf
// first (inlined callees before their callers), and its CPU time in
// nanoseconds.
type profSample struct {
	frames []string
	value  int64
}

// pprofSamples runs `go tool pprof -traces` on the profile files and
// returns their samples.
func pprofSamples(files []string) ([]profSample, error) {
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-unit=ns", "-traces"}, files...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	samples, err := parseTraces(string(out))
	if err == nil && len(samples) == 0 {
		err = fmt.Errorf("go tool pprof: no samples in %d profiles", len(files))
	}
	return samples, err
}

// parseTraces reads the output of `go tool pprof -unit=ns -traces`: a
// header, then one block per sample, each opened by a separator line.
// A block holds the sample's labels ("key:  value"), then its value
// and leaf frame on one line, then one caller per line.
func parseTraces(text string) ([]profSample, error) {
	var out []profSample
	inBlocks := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			inBlocks = true
			continue
		}
		rest := strings.TrimSpace(line)
		if !inBlocks || rest == "" {
			continue
		}
		tok, frame, _ := strings.Cut(rest, " ")
		if num, ok := strings.CutSuffix(tok, "ns"); ok {
			if v, err := strconv.ParseFloat(num, 64); err == nil {
				out = append(out, profSample{frames: []string{funcName(frame)}, value: int64(v)})
				continue
			}
		}
		if strings.HasSuffix(tok, ":") {
			continue // a label
		}
		if len(out) == 0 {
			return nil, fmt.Errorf("pprof traces: a frame before any sample: %q", line)
		}
		out[len(out)-1].frames = append(out[len(out)-1].frames, funcName(rest))
	}
	return out, nil
}

// funcName strips the marker pprof puts after an inlined frame.
func funcName(frame string) string {
	return strings.TrimSuffix(strings.TrimSpace(frame), " (inline)")
}

// profModules are the repository's run-time modules, each a bucket of
// the profile; everything else falls into "gc", "runtime" or "other".
var profModules = []string{
	"cache", "core", "cpu", "digest", "directory", "experiments", "faults",
	"fuzz", "machine", "memory", "metrics", "mpi", "msg", "network", "npb",
	"psim", "runner", "serve", "shmem", "sim", "stats", "timing", "topology",
	"trace",
}

// gcFrames mark a sample as garbage-collector work wherever they
// appear in its stack: background marking and sweeping, and mark
// assists charged to allocating goroutines.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker":    true,
	"runtime.gcAssistAlloc":     true,
	"runtime.bgsweep":           true,
	"runtime.bgscavenge":        true,
	"runtime.deductSweepCredit": true,
	"runtime.gcStart":           true,
	"runtime.gcMarkDone":        true,
	"runtime.gcMarkTermination": true,
}

// funcPackage returns the import path of a symbolized function name
// such as "cenju4/internal/sim.(*Engine).Run" or
// "cenju4/internal/memory.(*Queue[...]).Push".
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] // type arguments may hold '/' and '.'
	}
	dir := ""
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		dir, name = name[:i+1], name[i+1:]
	}
	if i := strings.IndexByte(name, '.'); i >= 0 {
		name = name[:i]
	}
	return dir + name
}

// bucketOf names the bucket that owns a sample's self time: "gc" when
// any frame is collector work, else the leaf frame's repository module,
// "runtime" for the Go runtime (its assembly routines, such as
// aeshashbody, carry no package name), and "other" for everything else
// (the standard library, the benchmark itself).
func bucketOf(frames []string) string {
	if len(frames) == 0 {
		return "other"
	}
	for _, f := range frames {
		if gcFrames[f] {
			return "gc"
		}
	}
	pkg := funcPackage(frames[0])
	if mod, ok := strings.CutPrefix(pkg, "cenju4/internal/"); ok {
		mod, _, _ = strings.Cut(mod, "/")
		for _, m := range profModules {
			if m == mod {
				return m
			}
		}
		return "other"
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/") ||
		!strings.Contains(frames[0], ".") {
		return "runtime"
	}
	return "other"
}

// profileShares buckets samples and returns each bucket's share of the
// total CPU time; the shares sum to 1 when there is any sample.
func profileShares(samples []profSample) map[string]float64 {
	var total int64
	byBucket := make(map[string]int64)
	for _, s := range samples {
		byBucket[bucketOf(s.frames)] += s.value
		total += s.value
	}
	out := make(map[string]float64, len(byBucket))
	for b, v := range byBucket {
		if total > 0 {
			out[b] = float64(v) / float64(total)
		}
	}
	return out
}
