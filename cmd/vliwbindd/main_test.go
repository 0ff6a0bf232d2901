package main

// Lifecycle tests for the daemon, driven through realMain with an
// injected signal channel: listen on an ephemeral port, serve real
// HTTP, drain cleanly on the first SIGTERM, exit 0 with the journal
// flushed and compacted.

import (
	"bytes"
	"encoding/json"
	"fmt"

	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"vliwbind/internal/leakcheck"
)

// startDaemon runs realMain in a goroutine and returns the bound
// address, the signal channel, and a channel yielding the exit code.
func startDaemon(t *testing.T, extraArgs ...string) (addr string, sigc chan os.Signal, exit chan int, logs *bytes.Buffer) {
	t.Helper()
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	args := append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, extraArgs...)
	sigc = make(chan os.Signal, 2)
	exit = make(chan int, 1)
	logs = &bytes.Buffer{}
	var out bytes.Buffer
	go func() {
		exit <- realMain(args, &out, logs, sigc, func(code int) {
			exit <- 100 + code // mark hard exits distinctly; never os.Exit in tests
		})
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(bytes.TrimSpace(b)) > 0 {
			addr = string(bytes.TrimSpace(b))
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never wrote its address; logs:\n%s", logs)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return addr, sigc, exit, logs
}

func TestDaemonServesAndDrainsOnSigterm(t *testing.T) {
	leakcheck.Check(t)
	storeDir := t.TempDir()
	addr, sigc, exit, logs := startDaemon(t, "-store-dir", storeDir, "-drain", "3s")

	if resp, err := http.Get("http://" + addr + "/healthz"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}
	if resp, err := http.Get("http://" + addr + "/readyz"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("readyz: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}

	resp, err := http.Post("http://"+addr+"/bind", "application/json",
		strings.NewReader(`{"kernel":"ARF","dp":"[2,1|2,1]"}`))
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	var body struct {
		Outcome string `json:"outcome"`
		Audited bool   `json:"audited"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || body.Outcome != "ok" || !body.Audited {
		t.Fatalf("bind: status=%d outcome=%q audited=%v", resp.StatusCode, body.Outcome, body.Audited)
	}

	sigc <- syscall.SIGTERM
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit code %d after SIGTERM, want 0; logs:\n%s", code, logs)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon did not exit after SIGTERM; logs:\n%s", logs)
	}

	// The drain flushed the journal: the stored ARF result replays.
	journal, err := os.ReadFile(filepath.Join(storeDir, "results.jsonl"))
	if err != nil {
		t.Fatalf("journal missing after drain: %v", err)
	}
	if !bytes.Contains(journal, []byte(`"key":`)) {
		t.Errorf("journal has no records after a served bind:\n%s", journal)
	}
	if !bytes.Contains(logs.Bytes(), []byte("draining")) {
		t.Errorf("logs do not mention the drain:\n%s", logs)
	}
	// The startup line names the resolved pool size, not the flag's 0.
	if want := fmt.Sprintf("(workers=%d ", runtime.GOMAXPROCS(0)); !bytes.Contains(logs.Bytes(), []byte(want)) {
		t.Errorf("startup log lacks %q:\n%s", want, logs)
	}
	if !bytes.Contains(logs.Bytes(), []byte("store journal compacted to 1 live entrie(s)")) {
		t.Errorf("drain of a journal-backed store logged no compaction:\n%s", logs)
	}
}

func TestDaemonUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := realMain([]string{"-nope"}, &out, &errb, nil, nil); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
	if code := realMain([]string{"positional"}, &out, &errb, nil, nil); code != 2 {
		t.Errorf("positional arg: exit %d, want 2", code)
	}
	if code := realMain([]string{"-workers", "-3"}, &out, &errb, nil, nil); code != 2 {
		t.Errorf("invalid config: exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "Workers") {
		t.Errorf("stderr does not name the invalid option:\n%s", errb.String())
	}
}

func TestDaemonListenFailure(t *testing.T) {
	var out, errb bytes.Buffer
	if code := realMain([]string{"-addr", "256.256.256.256:0"}, &out, &errb, nil, nil); code != 1 {
		t.Errorf("bad listen address: exit %d, want 1", code)
	}
}
