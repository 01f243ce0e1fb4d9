package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// environment is recorded with every report so numbers from different
// machines are never compared by accident.
type environment struct {
	NumCPU     int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	Caches     map[string]string `json:"cache_sizes,omitempty"`
	Commit     string            `json:"commit"`
}

func readEnvironment() environment {
	env := environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	// Cache sizes tell a reader which tables left which cache level. The
	// files are absent in some sandboxes; the record is then simply empty.
	const dir = "/sys/devices/system/cpu/cpu0/cache/"
	for _, idx := range []string{"index0", "index1", "index2", "index3"} {
		level, err1 := os.ReadFile(dir + idx + "/level")
		typ, err2 := os.ReadFile(dir + idx + "/type")
		size, err3 := os.ReadFile(dir + idx + "/size")
		if err1 != nil || err2 != nil || err3 != nil {
			continue
		}
		if env.Caches == nil {
			env.Caches = make(map[string]string)
		}
		key := "L" + strings.TrimSpace(string(level)) + "-" + strings.ToLower(strings.TrimSpace(string(typ)))
		env.Caches[key] = strings.TrimSpace(string(size))
	}
	return env
}

// usage is the process's resource use so far: user+system CPU time, the
// system share of it, and minor page faults. Page faults are counted
// because in this VM a fault costs ~2 us and their price moves with the
// host: a round that re-faults its heap pays for the machine, not the
// program.
type usage struct {
	cpu, sys time.Duration
	faults   int64
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return usage{cpu: tv(ru.Utime) + tv(ru.Stime), sys: tv(ru.Stime), faults: ru.Minflt}
}

func (u usage) sub(v usage) usage {
	return usage{cpu: u.cpu - v.cpu, sys: u.sys - v.sys, faults: u.faults - v.faults}
}

func (u usage) add(v usage) usage {
	return usage{cpu: u.cpu + v.cpu, sys: u.sys + v.sys, faults: u.faults + v.faults}
}

// calibTable is a 32 MiB random cycle for calibrate to chase: larger
// than L2, so the kernel is bound by memory latency like the engine's hash
// probes and scans, and it slows down when a neighbour on the host does.
// It is mapped outside the Go heap so heap_live_mb does not count it.
var calibTable = sync.OnceValue(func() []uint32 {
	const n = 8 << 20
	raw, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("bench: map calibration table: " + err.Error())
	}
	t := unsafe.Slice((*uint32)(unsafe.Pointer(&raw[0])), n)
	for i := range t {
		t[i] = uint32(i)
	}
	// Sattolo's shuffle: one cycle through every slot.
	x := uint64(0x9e3779b97f4a7c15)
	for i := n - 1; i > 0; i-- {
		x = mix64(x + uint64(i))
		j := int(x % uint64(i))
		t[i], t[j] = t[j], t[i]
	}
	return t
})

var calibPos uint32

// calibrate chases a fixed number of dependent loads through calibTable
// and returns the wall time. The work never changes, so a slow sample
// means the machine, not the program under test, was disturbed.
func calibrate() time.Duration {
	t := calibTable()
	start := time.Now()
	p := calibPos
	for i := 0; i < 150_000; i++ {
		p = t[p]
	}
	calibPos = p
	return time.Since(start)
}
