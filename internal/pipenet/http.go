package pipenet

import (
	"context"
	"net"
	"net/http"
)

// Transport returns an http.RoundTripper whose every request dials the
// listener, regardless of the request URL's host. Nothing is kept alive:
// a pipe has no handshake to amortise, an idle one would outlive the
// short-lived clients that own these transports, and dial faults are
// meant to fire per request.
func Transport(l *Listener) http.RoundTripper {
	return &http.Transport{
		DisableKeepAlives: true,
		DialContext: func(ctx context.Context, network, address string) (net.Conn, error) {
			return l.Dial()
		},
	}
}
