package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// host is the stamp every result carries: what the numbers were
// measured on, and which lrusim fold kernels that hardware selects.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	AVX2       bool   `json:"avx2"`
	AVX512     bool   `json:"avx512_f_dq_vl"`
	// FoldKernel is what lrusim's selection rule picks on this host: the
	// gap folds run AVX-512 when F, DQ and VL are all present, the
	// emission folds run AVX2 when AVX2 is present, and the generic Go
	// loops run otherwise (always, off amd64).
	FoldKernel string `json:"fold_kernel"`
	// CkptDir is where checkpoints are written; CkptFS names its file
	// system. The fsync in the snapshot writer costs far less on a
	// RAM-backed (tmpfs) directory than on a shared disk.
	CkptDir   string `json:"ckpt_dir"`
	CkptFS    string `json:"ckpt_fs"`
	RAMBacked bool   `json:"ckpt_ram_backed"`
}

func hostStamp(ckptDir string) host {
	h := host{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		CkptDir:    ckptDir,
	}
	flags := map[string]bool{}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			key, val, ok := strings.Cut(sc.Text(), ":")
			if !ok {
				continue
			}
			switch strings.TrimSpace(key) {
			case "model name":
				if h.CPU == "unknown" {
					h.CPU = strings.TrimSpace(val)
				}
			case "flags":
				if len(flags) == 0 {
					for _, fl := range strings.Fields(val) {
						flags[fl] = true
					}
				}
			}
		}
		f.Close()
	}
	h.AVX2 = flags["avx2"]
	h.AVX512 = flags["avx512f"] && flags["avx512dq"] && flags["avx512vl"]
	switch {
	case runtime.GOARCH != "amd64":
		h.FoldKernel = "generic"
	case h.AVX512 && h.AVX2:
		h.FoldKernel = "avx512 gaps, avx2 emissions"
	case h.AVX512:
		h.FoldKernel = "avx512 gaps, generic emissions"
	case h.AVX2:
		h.FoldKernel = "avx2 emissions, generic gaps"
	default:
		h.FoldKernel = "generic"
	}
	h.CkptFS = "unknown"
	var st syscall.Statfs_t
	if err := syscall.Statfs(ckptDir, &st); err == nil {
		h.CkptFS = fmt.Sprintf("magic 0x%x", st.Type)
		if name, ok := fsNames[int64(st.Type)]; ok {
			h.CkptFS = name
		}
		h.RAMBacked = h.CkptFS == "tmpfs" || h.CkptFS == "ramfs"
	}
	return h
}

// fsNames names the statfs magic numbers of common Linux file systems.
var fsNames = map[int64]string{
	0x01021994: "tmpfs",
	0x858458f6: "ramfs",
	0xef53:     "ext4",
	0x794c7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683e: "btrfs",
}
