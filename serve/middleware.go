package serve

import (
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"time"
)

// Middleware wraps an http.Handler with a cross-cutting concern.
type Middleware func(http.Handler) http.Handler

// Chain applies middlewares so that the first listed is outermost:
// Chain(h, a, b) serves a(b(h)).
func Chain(h http.Handler, mws ...Middleware) http.Handler {
	for i := len(mws) - 1; i >= 0; i-- {
		h = mws[i](h)
	}
	return h
}

// statusRecorder captures the status code written downstream so logging
// and metrics layers can report it.
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
}

// recorderFor returns w itself when an outer layer already wrapped it in
// a statusRecorder, so one request carries one recorder however many
// layers read the status.
func recorderFor(w http.ResponseWriter) *statusRecorder {
	if rec, ok := w.(*statusRecorder); ok {
		return rec
	}
	return &statusRecorder{ResponseWriter: w}
}

func (r *statusRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.status = code
		r.wrote = true
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if !r.wrote {
		r.status = http.StatusOK
		r.wrote = true
	}
	return r.ResponseWriter.Write(b)
}

func (r *statusRecorder) statusOr200() int {
	if r.wrote {
		return r.status
	}
	return http.StatusOK
}

// WithLogging emits one access-log line per request: method, path,
// status, duration. A nil logger disables it.
func WithLogging(logger *log.Logger) Middleware {
	return func(next http.Handler) http.Handler {
		if logger == nil {
			return next
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := &statusRecorder{ResponseWriter: w}
			t0 := time.Now()
			defer func() {
				logger.Printf("%s %s %d %.2fms", r.Method, r.URL.Path, rec.statusOr200(), float64(time.Since(t0).Microseconds())/1000)
			}()
			next.ServeHTTP(rec, r)
		})
	}
}

// WithRecovery converts handler panics into 500 responses instead of
// torn connections, logs the stack, and counts the event — one bad
// request must not take down the daemon or go unnoticed.
func WithRecovery(logger *log.Logger, onPanic func()) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := recorderFor(w)
			defer func() {
				if p := recover(); p != nil {
					if onPanic != nil {
						onPanic()
					}
					if logger != nil {
						logger.Printf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
					}
					if !rec.wrote {
						http.Error(rec, fmt.Sprintf("internal error: %v", p), http.StatusInternalServerError)
					}
				}
			}()
			next.ServeHTTP(rec, r)
		})
	}
}

// WithConcurrencyLimit admits at most max requests at once via a
// semaphore; the rest are shed immediately with 503 + Retry-After
// rather than queued, so a saturated server fails fast and stays
// responsive instead of building an unbounded backlog.
func WithConcurrencyLimit(max int, onShed func()) Middleware {
	sem := make(chan struct{}, max)
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
				next.ServeHTTP(w, r)
			default:
				if onShed != nil {
					onShed()
				}
				w.Header().Set("Retry-After", "1")
				http.Error(w, "server overloaded, retry later", http.StatusServiceUnavailable)
			}
		})
	}
}

// WithTimeout bounds each request's handler time; requests that exceed
// it get 503 with a JSON error body (http.TimeoutHandler semantics: the
// handler keeps running but its response is discarded).
func WithTimeout(d time.Duration) Middleware {
	return func(next http.Handler) http.Handler {
		if d <= 0 {
			return next
		}
		return http.TimeoutHandler(next, d, `{"error":"request timed out"}`)
	}
}
