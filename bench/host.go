package main

import (
	"crypto/sha256"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// calibBlocks × 64 KiB of SHA-256 on one thread: a fixed amount of work
// whose duration depends only on the host, so a slow run can be told
// from a slow host. ~200 ms on the 2-core box the op counts were
// calibrated on.
const calibBlocks = 4096

var calibSink byte

// calibrate runs the fixed single-thread loop and returns its duration.
func calibrate() time.Duration {
	buf := make([]byte, 64<<10)
	for i := range buf {
		buf[i] = byte(i * 131)
	}
	start := time.Now()
	for i := 0; i < calibBlocks; i++ {
		sum := sha256.Sum256(buf)
		buf[0] = sum[0]
	}
	calibSink = buf[0]
	return time.Since(start)
}

// cpuTime is the process's user and system CPU time so far.
func cpuTime() (user, system time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime), tv(ru.Stime)
}

// pinnedEnv marks a process that already runs pinned; its value is the
// number of CPUs the process had before.
const pinnedEnv = "S3BENCH_PINNED"

// pinToOneCPU restricts the whole process to the lowest CPU it is
// allowed on, by setting the main thread's affinity and re-executing
// itself so every thread the runtime creates inherits it. On a virtual
// machine a wake-up that crosses CPUs is an inter-processor interrupt
// through the hypervisor, and what it costs varies by the minute; with
// one request in flight nothing runs in parallel anyway. It returns only
// if the process is already pinned or pinning is not possible.
func pinToOneCPU() {
	if os.Getenv(pinnedEnv) != "" {
		return
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var mask [16]uint64 // 1024 CPUs
	n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return
	}
	words := int(n) / 8
	for w := 0; w < words; w++ {
		if mask[w] == 0 {
			continue
		}
		low := mask[w] & -mask[w]
		mask = [16]uint64{}
		mask[w] = low
		break
	}
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return
	}
	self, err := os.Executable()
	if err != nil {
		return
	}
	_ = syscall.Exec(self, os.Args, append(os.Environ(), pinnedEnv+"="+strconv.Itoa(runtime.NumCPU())))
}

// hostInfo is the environment a run was measured in.
type hostInfo struct {
	NProc      int
	GoMaxProcs int
	GoVersion  string
	Load1      float64
	Pinned     bool
}

func readHost() hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	if n, err := strconv.Atoi(os.Getenv(pinnedEnv)); err == nil {
		h.NProc, h.Pinned = n, true
	}
	var si syscall.Sysinfo_t
	if err := syscall.Sysinfo(&si); err == nil {
		h.Load1 = float64(si.Loads[0]) / 65536
	}
	return h
}
