package main

import (
	"os"
	"os/exec"
	"testing"
)

func TestStopAcceptsDeathBySIGTERM(t *testing.T) {
	// A program stopped before it installs its signal handler dies of the
	// signal; stop must still report a clean stop.
	c, err := startChild(t.TempDir(), "sleeper", "sleep", "30")
	if err != nil {
		t.Skipf("no sleep binary: %v", err)
	}
	if err := c.stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	cmd := exec.Command("sh", "-c", "exit 3")
	if err := cmd.Run(); err == nil || terminatedBySIGTERM(err) {
		t.Errorf("exit status 3 reported as SIGTERM death: %v", err)
	}
	if _, err := cpuSeconds(os.Getpid()); err != nil {
		t.Errorf("cpuSeconds(self): %v", err)
	}
	if mb, err := peakRSSMB(os.Getpid()); err != nil || mb <= 0 {
		t.Errorf("peakRSSMB(self) = %v, %v", mb, err)
	}
}
