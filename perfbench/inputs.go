package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// The corpus every workload serves: nvdgen's seeded synthetic modern-NVD
// corpus. It is the system's data, not the benchmark's input, so it is
// fixed; --seed varies the request sequences.
const (
	corpusEntries = 100000
	corpusSeed    = 1
	deltaYear     = 2025
)

// binaries are the repo's commands, built from this checkout by run.sh.
type binaries struct {
	osdiv, nvdgen, nvdimport string
}

func binariesIn(dir string) binaries {
	return binaries{
		osdiv:     filepath.Join(dir, "osdiv"),
		nvdgen:    filepath.Join(dir, "nvdgen"),
		nvdimport: filepath.Join(dir, "nvdimport"),
	}
}

// inputs are the generated corpus files.
type inputs struct {
	dir      string
	feeds    []string
	snapshot string // columnar snapshot of the whole corpus
	db       string // imported relstore database
	deltaDir string // watch directory holding a one-year delta feed
}

func inputsAt(dir string) *inputs {
	in := &inputs{
		dir:      dir,
		snapshot: filepath.Join(dir, "corpus.osds"),
		db:       filepath.Join(dir, "corpus.db"),
		deltaDir: filepath.Join(dir, "delta"),
	}
	in.feeds, _ = filepath.Glob(filepath.Join(dir, "feeds", "*.xml.gz"))
	return in
}

func (in *inputs) delta() string {
	return filepath.Join(in.deltaDir, fmt.Sprintf("nvdcve-2.0-%d.xml.gz", deltaYear))
}

// ensureInputs generates the corpus once per size and seed with the
// repo's nvdgen and nvdimport, into a cache under buildDir. Generation is
// untimed; a finished cache directory is only ever renamed into place
// whole, so an interrupted run regenerates.
func ensureInputs(buildDir string, bins binaries) (*inputs, error) {
	dir := filepath.Join(buildDir, "inputs", fmt.Sprintf("synthetic-%d-seed%d", corpusEntries, corpusSeed))
	if _, err := os.Stat(dir); err == nil {
		return inputsAt(dir), nil
	}
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(tmp, "delta"), 0o755); err != nil {
		return nil, err
	}
	t := inputsAt(tmp)
	run := func(bin string, args ...string) error {
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s %v: %w", filepath.Base(bin), args, err)
		}
		return nil
	}
	if err := run(bins.nvdgen, "-synthetic", "-entries", fmt.Sprint(corpusEntries),
		"-seed", fmt.Sprint(corpusSeed), "-out", filepath.Join(tmp, "feeds"),
		"-snapshot", t.snapshot, "-workers", "2"); err != nil {
		return nil, err
	}
	t = inputsAt(tmp)
	args := append([]string{"-db", t.db, "-workers", "2"}, t.feeds...)
	if err := run(bins.nvdimport, args...); err != nil {
		return nil, err
	}
	if err := copyFile(filepath.Join(tmp, "feeds", filepath.Base(t.delta())), t.delta()); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, dir); err != nil {
		return nil, err
	}
	return inputsAt(dir), nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
