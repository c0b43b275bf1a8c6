package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"wsnlink/internal/buildinfo"
)

// host is the fingerprint of the machine and build a result was measured
// on. Results from different fingerprints are not comparable.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func currentHost() host {
	b := buildinfo.Current()
	commit := b.Revision
	if commit == "" {
		commit = "unknown"
	} else if b.Modified {
		commit += "+dirty"
	}
	return host{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
	}
}

// sameMachine reports whether two fingerprints describe the same host and
// toolchain (the commit is what a comparison is about, so it may differ),
// and otherwise what differs.
func (h host) sameMachine(o host) (bool, string) {
	var diffs []string
	if h.CPU != o.CPU {
		diffs = append(diffs, fmt.Sprintf("cpu %q vs %q", h.CPU, o.CPU))
	}
	if h.NumCPU != o.NumCPU {
		diffs = append(diffs, fmt.Sprintf("nproc %d vs %d", h.NumCPU, o.NumCPU))
	}
	if h.GOMAXPROCS != o.GOMAXPROCS {
		diffs = append(diffs, fmt.Sprintf("GOMAXPROCS %d vs %d", h.GOMAXPROCS, o.GOMAXPROCS))
	}
	if h.GoVersion != o.GoVersion {
		diffs = append(diffs, fmt.Sprintf("go %s vs %s", h.GoVersion, o.GoVersion))
	}
	return len(diffs) == 0, strings.Join(diffs, ", ")
}

// cpuModel is the first "model name" in /proc/cpuinfo, or the architecture
// where there is none.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		sc := bufio.NewScanner(bytes.NewReader(data))
		for sc.Scan() {
			k, v, ok := strings.Cut(sc.Text(), ":")
			if ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}

// resetPeakRSS restarts the kernel's peak-RSS watermark for this process,
// so peakRSS covers only what follows. Where the kernel refuses, the
// watermark keeps counting from process start.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) //nolint:errcheck // best effort, see above
}

// peakRSS is the process's peak resident set in bytes (VmHWM), or 0 where
// /proc is unavailable.
func peakRSS() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			if err == nil {
				return kb << 10
			}
		}
	}
	return 0
}
