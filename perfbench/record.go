package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// machineRecord identifies the machine and inputs a result came from.
// Results whose records differ must not be compared.
type machineRecord struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the checkout's git commit, "unknown" when the checkout
	// is not a git work tree; SourceSHA256 hashes the module's Go
	// sources either way.
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
	Seed         int64  `json:"seed"`
	// Scenarios is the SHA-256 of each workload's scenario text at Seed.
	Scenarios map[string]string `json:"scenario_sha256"`
}

func record(seed int64) (*machineRecord, error) {
	src, err := sourceDigest(".")
	if err != nil {
		return nil, err
	}
	r := &machineRecord{
		CPUModel:     cpuModel(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       "unknown",
		SourceSHA256: src,
		Seed:         seed,
		Scenarios:    map[string]string{},
	}
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			r.Commit = strings.TrimSpace(string(out))
		}
	}
	for _, w := range workloads {
		r.Scenarios[w.name] = sha(w.scenarioText(seed, false))
	}
	return r, nil
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

// sourceDigest hashes every go.mod and .go file under root (skipping
// hidden directories such as the build directory), in path order.
func sourceDigest(root string) (string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (d.Name() == "go.mod" || strings.HasSuffix(d.Name(), ".go")) {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		h.Write([]byte(filepath.ToSlash(p) + "\x00"))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
