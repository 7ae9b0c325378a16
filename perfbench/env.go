package main

// The environment record printed with every report.

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

type environment struct {
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	CPUModel   string   `json:"cpu_model"`
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GOGC       string   `json:"gogc"`
	GOMEMLIMIT string   `json:"gomemlimit"`
	ArgodFlags []string `json:"argod_flags"`
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Seconds    int      `json:"seconds"`
	Trace      int      `json:"trace"`
	// Commit is the git commit when the checkout is a git work tree;
	// SourceSHA256 identifies the measured code either way.
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func newEnvironment(o *options) *environment {
	return &environment{
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		CPUModel:     cpuModel(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GOGC:         envOr("GOGC", "default"),
		GOMEMLIMIT:   envOr("GOMEMLIMIT", "default"),
		ArgodFlags:   []string{"-addr", "127.0.0.1:<free port>"},
		Workload:     o.workload,
		Seed:         o.seed,
		Seconds:      o.seconds,
		Trace:        o.trace,
		Commit:       gitCommit(),
		SourceSHA256: sourceDigest(),
	}
}

// hostTicks is the aggregate CPU line of /proc/stat: the total of all
// fields and the steal field, the time the hypervisor ran other guests.
type hostTicks struct{ total, steal int64 }

func readHostTicks() hostTicks {
	var h hostTicks
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return h
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		h.total += v
		if i == 7 {
			h.steal = v
		}
	}
	return h
}

// stealPctSince is the share of CPU time stolen between prev and h.
func (h hostTicks) stealPctSince(prev hostTicks) float64 {
	if h.total <= prev.total {
		return 0
	}
	return 100 * float64(h.steal-prev.steal) / float64(h.total-prev.total)
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from .git without running git.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(".git/packed-refs")
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

// sourceDigest hashes go.mod and every file under cmd, internal and pkg.
func sourceDigest() string {
	var files []string
	for _, root := range []string{"cmd", "internal", "pkg"} {
		_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && d.Type().IsRegular() {
				files = append(files, path)
			}
			return nil
		})
	}
	sort.Strings(files)
	h := sha256.New()
	for _, name := range append([]string{"go.mod"}, files...) {
		f, err := os.Open(name)
		if err != nil {
			continue
		}
		io.WriteString(h, name+"\x00")
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}
