package main

import (
	"bytes"
	"io"
	"net/http"
	"strconv"
	"time"
)

// client is one loopback HTTP connection: its own transport capped at one
// connection, and one reused body buffer so a 60 MB certification body is
// not reallocated per request.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (c *client) closeIdle() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole reply. The returned body
// aliases the client's buffer and is valid until the next call. span, when
// non-zero, tags the request for the traced run's httpapi span.
func (c *client) do(method, path string, body []byte, span uint64) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if span != 0 {
		req.Header.Set(spanHeader, strconv.FormatUint(span, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}
