//go:build ignore

// Replay sends the response corpus's requests, in file order, to a tictacd
// it starts, and compares every response's status and SHA-256 with
// responses.json, as TestResponseCorpus does in process. The daemon runs
// on a kernel-chosen loopback port with -max-batch 16, the batch cap of
// the corpus services. Fleet entries are left out: they need a fleet node
// whose peers never answer. Every body goes out byte for byte as committed.
//
//	go build -o bin/tictacd ./cmd/tictacd
//	go run internal/service/testdata/corpus/replay.go bin/tictacd internal/service/testdata/corpus
//
// It exits 0 when every entry matches, 1 on any difference or failure and
// 2 on bad arguments.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// request and response are the entries of requests.json and
// responses.json (see corpusRequest and corpusResponse in corpus_test.go).
type request struct {
	Name   string          `json:"name"`
	Method string          `json:"method"`
	Path   string          `json:"path"`
	Body   json.RawMessage `json:"body"`
	Text   string          `json:"text"`
	Pad    int             `json:"pad"`
	Fleet  bool            `json:"fleet"`
}

type response struct {
	Name   string `json:"name"`
	Status int    `json:"status"`
	SHA256 string `json:"sha256"`
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: go run replay.go <tictacd binary> <corpus dir>")
		os.Exit(2)
	}
	if err := run(os.Args[1], os.Args[2]); err != nil {
		fmt.Fprintln(os.Stderr, "corpus replay:", err)
		os.Exit(1)
	}
}

func run(bin, dir string) error {
	var reqs []request
	var want []response
	if err := readJSON(filepath.Join(dir, "requests.json"), &reqs); err != nil {
		return err
	}
	if err := readJSON(filepath.Join(dir, "responses.json"), &want); err != nil {
		return err
	}
	if len(reqs) != len(want) {
		return fmt.Errorf("%d requests but %d responses", len(reqs), len(want))
	}

	daemon := exec.Command(bin, "-addr", "127.0.0.1:0", "-max-batch", "16")
	daemon.Stderr = os.Stderr
	out, err := daemon.StdoutPipe()
	if err != nil {
		return err
	}
	if err := daemon.Start(); err != nil {
		return err
	}
	defer func() {
		daemon.Process.Kill()
		daemon.Wait()
	}()
	base, err := serving(out)
	if err != nil {
		return err
	}

	client := &http.Client{Timeout: time.Minute}
	sent, failed := 0, 0
	for i, rq := range reqs {
		if rq.Fleet {
			continue
		}
		if want[i].Name != rq.Name {
			return fmt.Errorf("entry %d is %q in requests.json but %q in responses.json", i, rq.Name, want[i].Name)
		}
		status, sum, err := send(client, base, rq)
		if err != nil {
			return fmt.Errorf("%s: %w", rq.Name, err)
		}
		sent++
		if status != want[i].Status || sum != want[i].SHA256 {
			failed++
			fmt.Printf("%s: status %d sha256 %s, want status %d sha256 %s\n", rq.Name, status, sum, want[i].Status, want[i].SHA256)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d entries differ from responses.json", failed, sent)
	}
	fmt.Printf("corpus replay: all %d entries match responses.json\n", sent)
	return nil
}

// serving reads the daemon's stdout until it names its listen address,
// and keeps draining it after.
func serving(out io.Reader) (string, error) {
	const prefix = "tictacd: serving on "
	found := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if addr, ok := strings.CutPrefix(sc.Text(), prefix); ok {
				addr, _, _ = strings.Cut(addr, " ")
				found <- addr
			}
		}
		close(found)
	}()
	select {
	case addr, ok := <-found:
		if !ok {
			return "", errors.New("tictacd exited before serving")
		}
		return "http://" + addr, nil
	case <-time.After(30 * time.Second):
		return "", errors.New("tictacd did not start serving within 30 s")
	}
}

// send makes one corpus request and returns the response's status and
// SHA-256.
func send(client *http.Client, base string, rq request) (int, string, error) {
	method := rq.Method
	if method == "" {
		method = http.MethodPost
	}
	body := []byte(rq.Text)
	if rq.Body != nil {
		body = rq.Body
	}
	body = append(bytes.Repeat([]byte(" "), rq.Pad), body...)
	req, err := http.NewRequest(method, base+rq.Path, bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", err
	}
	sum := sha256.Sum256(b)
	return resp.StatusCode, hex.EncodeToString(sum[:]), nil
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
