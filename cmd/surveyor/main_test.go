package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSurveyorFlags runs the built binary over flag sets that reach the
// survey's configuration validation: a configuration the outstanding-probe
// ring cannot run must exit non-zero with an error message, never a panic,
// and the defaults must run to completion.
func TestSurveyorFlags(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "surveyor")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string // empty: must succeed
	}{
		{"interval below 256ns", []string{"-interval", "100ns"}, "Interval must be at least 256ns"},
		{"negative interval", []string{"-interval", "-1s"}, "Interval must be at least 256ns"},
		{"timeout outlasting the ring", []string{"-interval", "300ms", "-timeout", "2h"}, "lengthen the Interval or shorten the Timeout"},
		{"negative timeout", []string{"-timeout", "-1s"}, "Timeout and Sweep must be positive"},
		{"negative cycles", []string{"-cycles", "-1"}, "Cycles must be positive"},
		{"defaults", nil, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(bin, tc.args...)
			cmd.Dir = dir
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			if strings.Contains(stderr.String(), "panic") || strings.Contains(stderr.String(), "goroutine ") {
				t.Fatalf("surveyor %v panicked:\n%s", tc.args, stderr.String())
			}
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("surveyor %v: %v\n%s", tc.args, err, stderr.String())
				}
				if !strings.Contains(stdout.String(), "surveyed 512 blocks x 24 cycles") {
					t.Errorf("unexpected output:\n%s", stdout.String())
				}
				if fi, err := os.Stat(filepath.Join(dir, "survey.tosv")); err != nil || fi.Size() == 0 {
					t.Errorf("no dataset written: %v", err)
				}
				return
			}
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() == 0 {
				t.Fatalf("surveyor %v: err %v, want a non-zero exit", tc.args, err)
			}
			if !strings.Contains(stderr.String(), tc.wantErr) {
				t.Errorf("surveyor %v: stderr %q, want it to contain %q", tc.args, stderr.String(), tc.wantErr)
			}
		})
	}
}
