package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// The kernel reports CPU times in clock ticks; USER_HZ is 100 on every
// Linux ABI Go runs on, and there is no sysconf in the standard library.
const ticksPerSecond = 100

// pidCPU is utime and stime, in ticks, from /proc/<pid>/stat.
type pidCPU struct{ user, sys int64 }

func (c pidCPU) total() int64 { return c.user + c.sys }

// parsePidStat reads utime and stime from the text of /proc/<pid>/stat.
// The command name may contain spaces and parentheses, so fields are
// counted from the last ')'.
func parsePidStat(text string) (pidCPU, error) {
	i := strings.LastIndexByte(text, ')')
	if i < 0 {
		return pidCPU{}, fmt.Errorf("pid stat: no command field in %q", text)
	}
	f := strings.Fields(text[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return pidCPU{}, fmt.Errorf("pid stat: %d fields after the command, need 13", len(f))
	}
	utime, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return pidCPU{}, fmt.Errorf("pid stat: utime: %w", err)
	}
	stime, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return pidCPU{}, fmt.Errorf("pid stat: stime: %w", err)
	}
	return pidCPU{user: utime, sys: stime}, nil
}

// parseVmHWM returns the peak resident set, in kB, from the text of
// /proc/<pid>/status.
func parseVmHWM(text string) (int64, error) {
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("pid status: malformed VmHWM line %q", line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("pid status: no VmHWM line")
}

// hostCPU is the aggregate "cpu" line of /proc/stat, in ticks.
type hostCPU struct {
	busy  int64 // user+nice+system+irq+softirq
	steal int64
	total int64 // busy+idle+iowait+steal
}

// parseHostStat reads the aggregate cpu line from the text of /proc/stat.
func parseHostStat(text string) (hostCPU, error) {
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] != "cpu" {
			continue
		}
		// user nice system idle iowait irq softirq steal [guest guest_nice];
		// guest time is already inside user.
		if len(f) < 9 {
			return hostCPU{}, fmt.Errorf("proc stat: cpu line has %d fields, need 9", len(f))
		}
		var v [8]int64
		for i := range v {
			n, err := strconv.ParseInt(f[i+1], 10, 64)
			if err != nil {
				return hostCPU{}, fmt.Errorf("proc stat: field %d: %w", i+1, err)
			}
			v[i] = n
		}
		h := hostCPU{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}
		h.total = h.busy + v[3] + v[4] + h.steal
		return h, nil
	}
	return hostCPU{}, fmt.Errorf("proc stat: no aggregate cpu line")
}

func readPidCPU(pid int) (pidCPU, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return pidCPU{}, err
	}
	return parsePidStat(string(b))
}

func readVmHWM(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}

func readHostCPU() (hostCPU, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	return parseHostStat(string(b))
}
