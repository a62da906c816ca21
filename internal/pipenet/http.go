package pipenet

import (
	"context"
	"net"
	"net/http"
)

// Transport returns an http.RoundTripper whose every connection dials
// the listener, regardless of the request URL's host.
func Transport(l *Listener) http.RoundTripper {
	return &http.Transport{
		DialContext: func(ctx context.Context, network, address string) (net.Conn, error) {
			return l.Dial()
		},
	}
}
