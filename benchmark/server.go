package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// server is one cmd/memcached child. The benchmark never changes the
// program, so the child cannot report a port it picked itself: the
// parent reserves an ephemeral loopback port, releases it and hands
// it over, then dials until the child answers.
type server struct {
	cmd     *exec.Cmd
	addr    string
	started time.Time
	log     bytes.Buffer // the child's stderr, shown only when something fails
}

func freeLoopbackAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startServer launches bin and waits until it accepts connections.
// The child dies with ctx (the per-workload timeout) and, through
// Pdeathsig, with this process, however this process ends.
func startServer(ctx context.Context, bin string, extra ...string) (*server, error) {
	addr, err := freeLoopbackAddr()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", addr, "-engine", "rp", "-quiet"}, extra...)
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{cmd: cmd, addr: addr, started: time.Now()}
	cmd.Stderr = &s.log
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		nc, err := net.Dial("tcp", addr)
		if err == nil {
			nc.Close()
			return s, nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			s.stop()
			return nil, fmt.Errorf("server on %s not ready: %w\n%s", addr, err, s.log.Bytes())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop kills the child and waits for it to end.
func (s *server) stop() {
	s.cmd.Process.Kill()
	s.cmd.Wait()
}

// stats sends the ASCII stats command on a fresh connection and
// returns the reply as a map.
func (s *server) stats() (map[string]string, error) {
	nc, err := net.Dial("tcp", s.addr)
	if err != nil {
		return nil, err
	}
	defer nc.Close()
	if _, err := nc.Write([]byte("stats\r\n")); err != nil {
		return nil, err
	}
	out := map[string]string{}
	r := bufio.NewReader(nc)
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return nil, fmt.Errorf("stats: %w", err)
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "END" {
			return out, nil
		}
		f := strings.SplitN(line, " ", 3)
		if len(f) != 3 || f[0] != "STAT" {
			return nil, fmt.Errorf("stats: unexpected line %q", line)
		}
		out[f[1]] = f[2]
	}
}
