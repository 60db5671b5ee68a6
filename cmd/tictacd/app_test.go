package main

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"tictac/internal/service"
)

func TestServerTimeoutsDropSlowClient(t *testing.T) {
	a, err := parseFlags([]string{
		"-read-timeout", "150ms",
		"-write-timeout", "150ms",
		"-idle-timeout", "150ms",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	srv := a.httpServer(service.New(a.options()).Handler())
	if srv.ReadTimeout != 150*time.Millisecond || srv.WriteTimeout != 150*time.Millisecond ||
		srv.IdleTimeout != 150*time.Millisecond || srv.ReadHeaderTimeout == 0 {
		t.Fatalf("server timeouts not wired: %+v", srv)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Headers promise a 100-byte body that never arrives.
	if _, err := io.WriteString(conn,
		"POST /v1/schedule HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 512)
	if _, err := conn.Read(buf); err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatal("server kept the stalled connection open past its ReadTimeout")
		}
		// Closed without a response: the read deadline fired. Good.
	}
	// A well-behaved client on the same server still gets served.
	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatalf("healthy request after slow client: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d after slow client", resp.StatusCode)
	}
}

func TestDefaultTimeoutsNonZero(t *testing.T) {
	a, err := parseFlags(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if a.readTimeout <= 0 || a.writeTimeout <= 0 || a.idleTimeout <= 0 {
		t.Fatalf("default timeouts = %v/%v/%v, want all > 0", a.readTimeout, a.writeTimeout, a.idleTimeout)
	}
}

func TestBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "no-such-flag") {
		t.Errorf("stderr missing flag error: %s", stderr.String())
	}
}

func TestHelpExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-h exit code %d, want 0", code)
	}
	if !strings.Contains(stderr.String(), "cache-capacity") {
		t.Errorf("usage text missing: %s", stderr.String())
	}
}

func TestBadCachePolicy(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-cache-policy", "astrology"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "astrology") {
		t.Errorf("stderr missing policy error: %s", stderr.String())
	}
}

func TestParsePeers(t *testing.T) {
	members, err := parsePeers("a=http://10.0.0.1:8080, b=http://10.0.0.2:8080/")
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 2 || members[0].ID != "a" || members[1].URL != "http://10.0.0.2:8080" {
		t.Fatalf("parsed %+v", members)
	}
	for _, bad := range []string{"", "a", "=http://x", "a=", "a=u,b"} {
		if _, err := parsePeers(bad); err == nil {
			t.Errorf("parsePeers(%q) accepted", bad)
		}
	}
}

func TestFleetFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-fleet"},                  // no node-id
		{"-fleet", "-node-id", "a"}, // no peers
		{"-fleet", "-node-id", "a", "-peers", "b=http://x,c=http://y"}, // self missing
		{"-fleet", "-node-id", "a", "-peers", "a=http://x"},            // single member
		{"-fleet", "-node-id", "a", "-peers", "garbage"},
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) exit %d, want 2 (stderr: %s)", args, code, stderr.String())
		}
	}
}
