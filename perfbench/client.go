package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// requestTimeout bounds one request; a request that takes longer fails.
const requestTimeout = 30 * time.Second

// client is the generator's HTTP client. Every sending goroutine of a
// load phase shares it, and its Transport holds at most maxConns
// keep-alive connections to the server.
type client struct {
	base string // http://host:port
	hc   *http.Client
}

func newClient(base string, maxConns int) *client {
	return &client{base: base, hc: &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
		},
	}}
}

// close drops the client's idle connections.
func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends method path with body (nil for none; a body whose length the
// request cannot see goes chunked) and returns the status and the whole
// response body.
func (c *client) do(method, path string, body io.Reader, header http.Header) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return 0, nil, err
	}
	for k, v := range header {
		req.Header[k] = v
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return resp.StatusCode, data, nil
}

// getJSON GETs path and decodes a 200 (or 429) body into v.
func (c *client) getJSON(path string, v any) (int, error) {
	status, data, err := c.do(http.MethodGet, path, nil, nil)
	if err != nil {
		return status, err
	}
	return status, json.Unmarshal(data, v)
}
