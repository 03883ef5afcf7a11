package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// Client is the admin API client — what a controller process (or the
// examples/adminclient walkthrough) uses to drive a running acdcd. The zero
// value is not usable; construct with NewClient.
//
// Every method maps to one endpoint and returns the daemon's error text on
// non-2xx responses, so callers see the same rejection reasons the server
// logs (a policy with β>1 fails with the Validate message, an overloaded
// sim loop with ErrBusy's).
type Client struct {
	base  string
	token string
	http  *http.Client
}

// NewClient builds a client for the daemon at base (e.g.
// "http://127.0.0.1:8080"). A nil httpClient uses a 10-second-timeout
// default.
func NewClient(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 10 * time.Second}
	}
	return &Client{base: base, http: httpClient}
}

// WithToken returns a copy of the client that sends the bearer token a
// hardened daemon (Config.AdminToken) requires on mutating endpoints.
func (c *Client) WithToken(token string) *Client {
	cp := *c
	cp.token = token
	return &cp
}

// do issues a request and decodes errors uniformly.
func (c *Client) do(method, path string, body io.Reader) ([]byte, error) {
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return data, fmt.Errorf("daemon: %s %s: %s: %s",
			method, path, resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}

// Ready probes readiness; a degraded daemon returns an error carrying the
// reason.
func (c *Client) Ready() error {
	_, err := c.do(http.MethodGet, "/readyz", nil)
	return err
}

// Status fetches the daemon status report.
func (c *Client) Status() (Status, error) {
	data, err := c.do(http.MethodGet, "/status", nil)
	if err != nil {
		return Status{}, err
	}
	var s Status
	return s, json.Unmarshal(data, &s)
}

// Metrics scrapes the merged datapath metrics in the text encoding.
func (c *Client) Metrics() (string, error) {
	data, err := c.do(http.MethodGet, "/metrics", nil)
	return string(data), err
}

// Flows lists tracked flows; host < 0 lists every host.
func (c *Client) Flows(host int) ([]FlowInfo, error) {
	path := "/v1/flows"
	if host >= 0 {
		path += "?host=" + strconv.Itoa(host)
	}
	data, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	var flows []FlowInfo
	return flows, json.Unmarshal(data, &flows)
}

// SendPolicies streams updates to the daemon (NDJSON) and returns one result
// per update, in order. A rejected update appears in its result; the call
// itself errors only when every update failed or the request could not be
// made.
func (c *Client) SendPolicies(updates ...PolicyUpdate) ([]PolicyResult, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, u := range updates {
		if err := enc.Encode(u); err != nil {
			return nil, err
		}
	}
	data, err := c.do(http.MethodPost, "/v1/policy", &buf)
	var results []PolicyResult
	if len(data) > 0 {
		// Even a 400 response carries per-update results when the stream
		// parsed; surface them alongside the error.
		_ = json.Unmarshal(data, &results)
	}
	return results, err
}

// Restart warm- or cold-restarts one host's vSwitch.
func (c *Client) Restart(host int, warm bool) error {
	mode := "cold"
	if warm {
		mode = "warm"
	}
	_, err := c.do(http.MethodPost,
		"/v1/restart?host="+strconv.Itoa(host)+"&mode="+mode, nil)
	return err
}
