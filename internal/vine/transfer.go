package vine

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The data plane: every worker (and the manager) runs a transfer server
// that serves cache entries to authorized fetchers. Peer transfers (§IV.B)
// are exactly this — the manager instructs worker B to fetch a cachename
// from worker A's transfer address instead of routing bytes through itself
// or a shared filesystem.
//
// Wire protocol (line-oriented, then raw bytes, then a checksum trailer):
//
//	→ GET <cachename>\n
//	← OK <size>\n<size bytes><4-byte LE CRC-32C>   |   ERR <reason>\n
//
// The server computes the CRC-32C while streaming (single pass, no
// buffering of the body) and appends it as a trailer; the fetcher verifies
// it over the received bytes and reports a mismatch as ErrCorruptTransfer,
// which the manager treats as a poisoned replica, not a flaky network.

// netConfig is the IO policy threaded through the data plane: how long
// one whole exchange may take, and an optional fault-injection layer
// under every conn.
type netConfig struct {
	ioTimeout time.Duration
	inject    NetFaultInjector
}

// defaultNetConfig matches the historical hardcoded policy.
func defaultNetConfig() netConfig {
	return netConfig{ioTimeout: defaultTransferTimeout}
}

// dial opens an outbound connection under the dial timeout and the
// fault-injection layer. label names the connection's role for targeted
// fault matching (e.g. "w0/fetch", "manager/control").
func (nc netConfig) dial(addr, label string) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	if nc.inject != nil {
		c = nc.inject.WrapConn(c, label)
	}
	return c, nil
}

// listen wraps a listener under the fault-injection layer, if any.
func (nc netConfig) listen(ln net.Listener, label string) net.Listener {
	if nc.inject != nil {
		return nc.inject.WrapListener(ln, label)
	}
	return ln
}

func (nc netConfig) deadline() time.Time {
	to := nc.ioTimeout
	if to <= 0 {
		to = defaultTransferTimeout
	}
	return time.Now().Add(to)
}

// transferSource resolves a cachename to a content stream.
type transferSource interface {
	openCache(name CacheName) (io.ReadCloser, int64, error)
}

// transferServer serves cache content over TCP.
type transferServer struct {
	ln  net.Listener
	src transferSource
	nc  netConfig

	mu     sync.Mutex
	closed bool

	// ServedBytes counts total bytes served, for peer-transfer assertions.
	servedBytes int64
	servedFiles int64
}

func newTransferServer(src transferSource, nc netConfig, label string) (*transferServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("vine: transfer listen: %w", err)
	}
	ts := &transferServer{ln: nc.listen(ln, label), src: src, nc: nc}
	go ts.acceptLoop()
	return ts, nil
}

// Addr reports the listen address peers should fetch from.
func (ts *transferServer) Addr() string { return ts.ln.Addr().String() }

// Served reports total files and bytes served so far.
func (ts *transferServer) Served() (files, bytes int64) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.servedFiles, ts.servedBytes
}

func (ts *transferServer) close() {
	ts.mu.Lock()
	ts.closed = true
	ts.mu.Unlock()
	ts.ln.Close()
}

func (ts *transferServer) acceptLoop() {
	for {
		c, err := ts.ln.Accept()
		if err != nil {
			return
		}
		go ts.handle(c)
	}
}

func (ts *transferServer) handle(c net.Conn) {
	defer c.Close()
	c.SetDeadline(ts.nc.deadline())
	r := bufio.NewReader(c)
	line, err := r.ReadString('\n')
	if err != nil {
		return
	}
	line = strings.TrimSpace(line)
	if !strings.HasPrefix(line, "GET ") {
		fmt.Fprintf(c, "ERR bad request\n")
		return
	}
	name := CacheName(strings.TrimSpace(line[4:]))
	rc, size, err := ts.src.openCache(name)
	if err != nil {
		fmt.Fprintf(c, "ERR %s\n", strings.ReplaceAll(err.Error(), "\n", " "))
		return
	}
	defer rc.Close()
	if _, err := fmt.Fprintf(c, "OK %d\n", size); err != nil {
		return
	}
	// The TeeReader keeps the copy on the ordinary read/write loop; it
	// must not be "optimized away", because a bare *os.File source would
	// take Go's sendfile/splice fast path, which on loopback stalls
	// ~40ms per transfer against delayed ACKs.
	h := crc32.New(castagnoli)
	n, err := io.Copy(c, io.TeeReader(rc, h))
	if err == nil && n == size {
		var trailer [4]byte
		binary.LittleEndian.PutUint32(trailer[:], h.Sum32())
		c.Write(trailer[:])
	}
	ts.mu.Lock()
	ts.servedBytes += n
	ts.servedFiles++
	ts.mu.Unlock()
}

// fetch retrieves a cachename from a transfer server, writing it to w.
// label names the fetching endpoint for fault targeting. The verified
// CRC-32C of the payload is returned alongside the size so callers (the
// worker's persistent cache index) can record it without re-reading the
// bytes.
func (nc netConfig) fetch(addr string, name CacheName, w io.Writer, label string) (int64, uint32, error) {
	c, err := nc.dial(addr, label)
	if err != nil {
		return 0, 0, fmt.Errorf("vine: dialing %s: %w", addr, err)
	}
	defer c.Close()
	c.SetDeadline(nc.deadline())
	if _, err := fmt.Fprintf(c, "GET %s\n", name); err != nil {
		return 0, 0, err
	}
	r := bufio.NewReader(c)
	line, err := r.ReadString('\n')
	if err != nil {
		return 0, 0, fmt.Errorf("vine: reading transfer header: %w", err)
	}
	line = strings.TrimSpace(line)
	if strings.HasPrefix(line, "ERR ") {
		return 0, 0, fmt.Errorf("vine: transfer of %s from %s refused: %s", name, addr, line[4:])
	}
	if !strings.HasPrefix(line, "OK ") {
		return 0, 0, fmt.Errorf("vine: malformed transfer header %q", line)
	}
	size, err := strconv.ParseInt(strings.TrimSpace(line[3:]), 10, 64)
	if err != nil || size < 0 {
		return 0, 0, fmt.Errorf("vine: malformed transfer size in %q", line)
	}
	h := crc32.New(castagnoli)
	n, err := io.Copy(io.MultiWriter(w, h), io.LimitReader(r, size))
	if err != nil {
		return n, 0, fmt.Errorf("vine: transfer body: %w", err)
	}
	if n != size {
		return n, 0, fmt.Errorf("vine: short transfer: %d of %d bytes", n, size)
	}
	var trailer [4]byte
	if _, err := io.ReadFull(r, trailer[:]); err != nil {
		return n, 0, fmt.Errorf("vine: reading transfer checksum: %w", err)
	}
	want := binary.LittleEndian.Uint32(trailer[:])
	if got := h.Sum32(); got != want {
		return n, got, corruptTransferErr(name, addr, want, got)
	}
	return n, want, nil
}

// fetchBytes retrieves a cachename into memory under the default net
// policy (no injection) — the manager collection path and test helper.
func fetchBytes(addr string, name CacheName) ([]byte, error) {
	return defaultNetConfig().fetchBytes(addr, name, "fetch")
}

func (nc netConfig) fetchBytes(addr string, name CacheName, label string) ([]byte, error) {
	var b strings.Builder
	if _, _, err := nc.fetch(addr, name, &b, label); err != nil {
		return nil, err
	}
	return []byte(b.String()), nil
}

// fetchToFile retrieves a cachename into a file, atomically (temp + rename)
// so a crashed transfer never leaves a corrupt cache entry. Returns size
// and verified payload CRC-32C.
func (nc netConfig) fetchToFile(addr string, name CacheName, path, label string) (int64, uint32, error) {
	// The temp name must be unique per fetch, not derived from path alone:
	// two concurrent fetches of the same cachename sharing one ".part"
	// inode would truncate each other, and the first rename could publish
	// the second fetch's half-written bytes.
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".part-")
	if err != nil {
		return 0, 0, err
	}
	tmp := f.Name()
	n, crc, err := nc.fetch(addr, name, f, label)
	cerr := f.Close()
	if err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return n, crc, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return n, crc, err
	}
	return n, crc, nil
}
