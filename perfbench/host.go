package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// hostInfo is the provenance block of every record: where and on what
// the numbers were measured, and from which tree.
func hostInfo(cfg config) map[string]any {
	abs, _ := filepath.Abs(cfg.buildDir)
	return map[string]any{
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go":          runtime.Version(),
		"cpu_model":   cpuModel(),
		"scratch_fs":  filesystemOf(abs),
		"seed":        cfg.seed,
		"commit":      cfg.commit,
		"tree_sha256": treeHash("."),
	}
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

// filesystemOf names the mount (type and source) holding path: the spill
// files and chaos-serve's data dir both live under the build directory.
func filesystemOf(path string) string {
	data, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	best, desc := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mnt := f[1]
		if (path == mnt || strings.HasPrefix(path, strings.TrimSuffix(mnt, "/")+"/")) && len(mnt) >= len(best) {
			best, desc = mnt, f[2]+" "+f[0]+" on "+mnt
		}
	}
	return desc
}

// treeHash fingerprints the Go sources of the tree the benchmark was
// built from, for checkouts that carry no git metadata. Hidden
// directories (the build directory among them) are skipped.
func treeHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() && (strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "go.mod")) {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(f + "\x00"))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}
