package daemon

import "net/http"

// Health probes liveness.
func (c *Client) Health() error {
	_, err := c.do(http.MethodGet, "/healthz", nil)
	return err
}
