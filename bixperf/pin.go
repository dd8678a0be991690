package main

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
)

// pinSelf puts the load generator and, through inherited affinity, every
// bixstore it starts on one CPU. When taskset exists and more than one CPU
// is allowed, it re-executes this process under taskset on the last
// allowed CPU (execve keeps the PID, so no extra process exists); the
// re-executed process sees one allowed CPU and returns at once.
//
// On a virtual machine a client and a server on different vCPUs hand
// every request across them, and each hand-off may wait for the host to
// reschedule a halted vCPU. That wait swings with the host's load and
// dominated the run-to-run spread; on one CPU the hand-off is a local
// context switch.
func pinSelf() error {
	taskset, err := exec.LookPath("taskset")
	if err != nil {
		return nil
	}
	allowed, err := allowedCPUs()
	if err != nil || len(allowed) < 2 {
		return nil
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	args := append([]string{"taskset", "-c", strconv.Itoa(allowed[len(allowed)-1]), self}, os.Args[1:]...)
	return syscall.Exec(taskset, args, os.Environ())
}

// allowedCPUs parses Cpus_allowed_list ("0-3,6") of this process.
func allowedCPUs() ([]int, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return nil, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		list, ok := strings.CutPrefix(line, "Cpus_allowed_list:")
		if !ok {
			continue
		}
		var cpus []int
		for _, part := range strings.Split(strings.TrimSpace(list), ",") {
			lo, hi, isRange := strings.Cut(part, "-")
			a, err := strconv.Atoi(lo)
			if err != nil {
				return nil, err
			}
			b := a
			if isRange {
				if b, err = strconv.Atoi(hi); err != nil {
					return nil, err
				}
			}
			for c := a; c <= b; c++ {
				cpus = append(cpus, c)
			}
		}
		return cpus, nil
	}
	return nil, fmt.Errorf("no Cpus_allowed_list in /proc/self/status")
}
