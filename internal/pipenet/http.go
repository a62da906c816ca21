package pipenet

import (
	"context"
	"net"
	"net/http"
)

// replyBufferSize is a connection's read buffer. A reply on these hops
// is a status line, a spans header (the largest measured was 403 B)
// and a small JSON body, so net/http's default 4 KiB is mostly unused
// on every dial. Request bodies, up to 83 KB of region maps on a
// snapshot load, go through the write buffer, which keeps its default:
// a smaller one would hand the pipe more, smaller writes.
const replyBufferSize = 1 << 10

// Transport returns an http.RoundTripper whose every request dials the
// listener, regardless of the request URL's host. It may serve many
// clients at once for as long as the listener lives: a guest agent
// builds one when it starts and hands it to every client. Nothing is
// kept alive: a pipe has no handshake to amortise, an idle connection
// would pin a server goroutine for as long as its transport lives, and
// dial faults are meant to fire per request.
func Transport(l *Listener) http.RoundTripper {
	return &http.Transport{
		DisableKeepAlives: true,
		ReadBufferSize:    replyBufferSize,
		DialContext: func(ctx context.Context, network, address string) (net.Conn, error) {
			return l.Dial()
		},
	}
}
