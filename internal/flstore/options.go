package flstore

// Functional options for Client construction, taken by every constructor
// and the only way to configure a Client: options are applied once, after
// the replica session is built and before the client serves calls, so no
// concurrent reader sees a half-configured client.

import (
	"time"

	"repro/internal/replica"
)

// ClientOption configures a Client at construction time.
type ClientOption func(*Client)

// WithReadRetries bounds how many attempts reads make while the requested
// position is past the head of the log (default 50).
func WithReadRetries(n int) ClientOption {
	return func(c *Client) { c.readRetries = n }
}

// WithRetryBackoff sets the base of the capped-exponential schedule read
// retries sleep on (default 2ms; 0 disables sleeping between read retries).
func WithRetryBackoff(d time.Duration) ClientOption {
	return func(c *Client) { c.retryBackoff = d }
}

// WithAppendRetries lets the append path retry a retryable rejection
// (maintainer overload, insufficient acks) up to n times, honoring the
// server's RetryAfter hint between attempts. Default 0: rejections surface
// immediately, which is what open-loop load generators rely on to measure
// dropped offered load.
func WithAppendRetries(n int) ClientOption {
	return func(c *Client) { c.appendRetries = n }
}

// WithAppendBackoff sets the base of the capped-jittered backoff between
// append retries (default 2ms). The actual wait per attempt is the larger
// of this schedule and the server's RetryAfter hint.
func WithAppendBackoff(d time.Duration) ClientOption {
	return func(c *Client) { c.appendBackoff = d }
}

// WithReadPolicy sets the replica read-placement policy
// (replica.OwnerFirst, replica.SpreadReads, replica.NearestFirst). Reads
// still fail over across the group in policy order when the picked member
// is down or behind. With R = 1 every policy picks the owner.
func WithReadPolicy(p replica.ReadPolicy) ClientOption {
	return func(c *Client) { c.session.SetReadPolicy(p) }
}
