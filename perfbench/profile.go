package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// layers are the host_share.* buckets, named after the modules.
var layers = []string{"sim", "cm5", "threads", "am", "reliable", "oam", "rpc", "obs", "apps", "exp", "runtime"}

// layerOf maps a profiled function to its layer, or "" for a frame that
// belongs to no layer (the Go runtime and standard library), whose time
// is charged to the nearest caller that does.
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		// The benchmark's own code builds the app configs, runs the
		// checks and feeds its kv latency probe: application glue.
		return "apps"
	}
	rest, ok := strings.CutPrefix(fn, "repro/internal/")
	if !ok {
		return ""
	}
	pkg := rest
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		pkg = rest[:i]
	}
	switch pkg {
	case "sim", "cm5", "threads", "am", "reliable", "oam", "rpc", "obs", "exp":
		return pkg
	}
	// internal/apps/... (the apps and their generated stubs) and the
	// app-support packages.
	return "apps"
}

// hostShares attributes the CPU profile's samples to layers: each sample
// goes to the layer of its innermost repro frame, so runtime work done
// on a layer's behalf (channel handoff under the kernel's process
// switch, allocation under a marshal) counts for that layer. Samples
// with no repro frame at all (GC workers, the scheduler) are "runtime".
// The shares sum to 1.
func hostShares(profile string) (map[string]float64, error) {
	text, err := pprofTraces(profile)
	if err != nil {
		return nil, err
	}
	byLayer := make(map[string]time.Duration)
	var total time.Duration
	var cur time.Duration
	var curLayer string
	flush := func() {
		if cur == 0 {
			return
		}
		if curLayer == "" {
			curLayer = "runtime"
		}
		byLayer[curLayer] += cur
		total += cur
		cur, curLayer = 0, ""
	}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inSamples := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inSamples = true
			continue
		}
		if !inSamples {
			continue
		}
		// A sample starts with "<value> <leaf function>"; the caller
		// frames follow one per line, some marked "(inline)".
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		fn := fields[0]
		if d, err := time.ParseDuration(fields[0]); err == nil && len(fields) > 1 {
			flush()
			cur, fn = d, fields[1]
		}
		if curLayer == "" {
			curLayer = layerOf(fn)
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read pprof output: %w", err)
	}
	if total == 0 {
		return nil, fmt.Errorf("cpu profile %s holds no samples", profile)
	}
	shares := make(map[string]float64)
	for _, l := range layers {
		shares[l] = float64(byLayer[l]) / float64(total)
	}
	return shares, nil
}

// pprofTraces prints every sampled stack of the profile with the Go
// toolchain's pprof.
func pprofTraces(profile string) ([]byte, error) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		goBin = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	cmd := exec.Command(goBin, "tool", "pprof", "-traces", profile)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+filepath.Dir(profile))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w: %s", err, stderr.String())
	}
	return out, nil
}
