package serve

import (
	"bufio"
	"fmt"
	"net"
	"sync/atomic"
	"time"
)

// Client is one connection to a squashd daemon, with wire-byte accounting.
// Not safe for concurrent use; open one Client per goroutine (concurrency
// comes from connections). After a Do error the connection's framing state
// is unknown, so the caller closes the Client instead of reusing it.
type Client struct {
	conn    net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	sc      *frameScratch
	in, out atomic.Int64
}

// countConn counts the bytes crossing a connection, so load tests can
// report wire throughput.
type countConn struct {
	net.Conn
	in, out *atomic.Int64
}

func (c countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	return n, err
}

func (c countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}

// DialClient connects to a daemon address.
func DialClient(addr string) (*Client, error) {
	conn, err := Dial(addr)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, sc: getFrameScratch()}
	cc := countConn{Conn: conn, in: &c.in, out: &c.out}
	c.br = bufio.NewReaderSize(cc, frameIOSize)
	c.bw = bufio.NewWriterSize(cc, frameIOSize)
	return c, nil
}

// DialClientProto is DialClient with an explicit protocol version, which
// must be 0 or ProtoV2 (the only one there is). It is kept for the ledger
// benchmark module, which pins v2 by name.
func DialClientProto(addr string, proto int) (*Client, error) {
	if proto != 0 && proto != ProtoV2 {
		return nil, fmt.Errorf("serve: unsupported protocol version %d (want %d)", proto, ProtoV2)
	}
	return DialClient(addr)
}

// SetDeadline bounds the socket I/O of subsequent Do calls (reads and
// writes both); the zero time clears it. The router and health prober use
// this so one stuck backend cannot wedge a forwarding goroutine.
func (c *Client) SetDeadline(t time.Time) error {
	if c.conn == nil {
		return fmt.Errorf("serve: client connection is closed")
	}
	return c.conn.SetDeadline(t)
}

// BytesIn and BytesOut report the connection's cumulative wire bytes.
// Safe to read concurrently with Do.
func (c *Client) BytesIn() int64  { return c.in.Load() }
func (c *Client) BytesOut() int64 { return c.out.Load() }

// Close releases the connection and its pooled scratch.
func (c *Client) Close() error {
	putFrameScratch(c.sc)
	c.sc = nil
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// Do sends one request and reads its response.
func (c *Client) Do(req *Request) (*Response, error) {
	if err := writeRequestV2(c.bw, c.sc, req); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	fb, env, pay, err := readFrameBodyV2(c.br)
	if err != nil {
		return nil, err
	}
	resp := &Response{}
	err = decodeResponseV2(c.sc, env, pay, resp)
	fb.release() // decode copied every section out
	if err != nil {
		return nil, err
	}
	return resp, nil
}
