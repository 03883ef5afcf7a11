package daemon

import (
	"bytes"
	"net/http"
	"strconv"
)

// Health probes liveness.
func (c *Client) Health() error {
	_, err := c.do(http.MethodGet, "/healthz", nil)
	return err
}

// RestoreSnapshot installs a checkpoint on one host.
func (c *Client) RestoreSnapshot(host int, snap []byte) error {
	_, err := c.do(http.MethodPost,
		"/v1/snapshot/restore?host="+strconv.Itoa(host), bytes.NewReader(snap))
	return err
}
