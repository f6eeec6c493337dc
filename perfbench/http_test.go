package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// An error reply to a validated query is an incorrect answer; only a
// request never sent, a failed connection or a server deadline (504)
// is a failure.
func TestHTTPCheckCountsErrorRepliesAsIncorrect(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		code, _ := strconv.Atoi(r.URL.Query().Get("code"))
		http.Error(w, "refused", code)
	}))
	defer srv.Close()
	gone := httptest.NewServer(http.NotFoundHandler())
	goneURL := gone.URL
	gone.Close()

	st := &stepRun{Rate: 1}
	add := func(rep reply, err error) {
		st.reqs = append(st.reqs, request{Key: len(st.reqs)})
		st.replies = append(st.replies, rep)
		st.timings = append(st.timings, timing{Err: err})
	}
	for _, code := range []int{400, 500, 502, 504} {
		add(post(srv.Client(), fmt.Sprintf("%s/search?code=%d", srv.URL, code), []byte("{}")))
	}
	add(post(srv.Client(), goneURL+"/search", []byte("{}")))
	add(reply{}, errNotSent)

	r := &report{Detail: map[string]any{}}
	(&httpEnv{}).check(nil, st, 0, r)
	if len(r.Incorrect) != 3 {
		t.Fatalf("incorrect = %q, want the 400, 500 and 502 replies", r.Incorrect)
	}
	for i, code := range []string{"400", "500", "502"} {
		if !strings.Contains(r.Incorrect[i], "status "+code) {
			t.Errorf("incorrect[%d] = %q, want status %s", i, r.Incorrect[i], code)
		}
	}
	if r.Failed != len(st.timings) {
		t.Errorf("failed = %d, want all %d requests", r.Failed, len(st.timings))
	}
}
