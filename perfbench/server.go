package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/httpapi"
	"repro/internal/policydsl"
	"repro/internal/ppdb"
	"repro/internal/relational"
	"repro/internal/wal"
)

// The ppdbserver defaults the benchmark serves with: one shard per CPU,
// WAL group commit every 2 ms or 64 records, access log on, no operator
// token.
const (
	serverShards    = 0
	walSyncInterval = 2 * time.Millisecond
	walSyncEvery    = 64
)

// server is one ppdb.DB behind the real httpapi.Server on a loopback
// listener, built with the public calls cmd/ppdbserver's build makes.
type server struct {
	db   *ppdb.DB
	api  *httpapi.Server
	srv  *http.Server
	errc chan error
	base string
	dir  string // WAL directory and access log; removed on close
	logf *os.File
}

// newDB builds the empty database exactly as ppdbserver does for
// `-corpus <policy> -table records -key provider -cols weight,income,age`.
func newDB(policy string) (*ppdb.DB, error) {
	doc, err := policydsl.Parse(policy)
	if err != nil {
		return nil, err
	}
	if doc.Policy == nil {
		return nil, errors.New("corpus has no policy block")
	}
	db, err := ppdb.New(ppdb.Config{Policy: doc.Policy, AttrSens: doc.AttrSens, Shards: serverShards})
	if err != nil {
		return nil, err
	}
	columns := []relational.Column{{Name: keyCol, Type: relational.TypeText, PrimaryKey: true}}
	for _, c := range dataCols {
		columns = append(columns, relational.Column{Name: c, Type: relational.TypeFloat})
	}
	schema, err := relational.NewSchema(columns)
	if err != nil {
		return nil, err
	}
	if err := db.RegisterTable(table, schema, keyCol); err != nil {
		return nil, err
	}
	return db, nil
}

// startServer serves a fresh database from dir. wrap, when non-nil, wraps
// the API handler (the traced run's httpapi span).
func startServer(dir string, wrap func(http.Handler) http.Handler) (*server, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	db, err := newDB(policyA)
	if err != nil {
		return nil, err
	}
	if _, err := db.AttachWAL(wal.Options{
		Dir:          filepath.Join(dir, "wal"),
		SyncInterval: walSyncInterval,
		SyncEvery:    walSyncEvery,
	}); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	logf, err := os.Create(filepath.Join(dir, "access.log"))
	if err != nil {
		return nil, errors.Join(err, db.CloseWAL())
	}
	api, err := httpapi.NewWith(db, httpapi.Options{RequestLog: log.New(logf, "", log.LstdFlags)})
	var ln net.Listener
	if err == nil {
		ln, err = net.Listen("tcp", "127.0.0.1:0")
	}
	if err != nil {
		return nil, errors.Join(err, db.CloseWAL(), logf.Close())
	}
	var h http.Handler = api
	if wrap != nil {
		h = wrap(api)
	}
	s := &server{
		db: db, api: api, dir: dir, logf: logf,
		base: "http://" + ln.Addr().String(),
		errc: make(chan error, 1),
		// The timeouts of ppdbserver's startServer.
		srv: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       30 * time.Second,
			WriteTimeout:      60 * time.Second,
			IdleTimeout:       120 * time.Second,
		},
	}
	go func() { s.errc <- s.srv.Serve(ln) }()
	return s, nil
}

// close drains the listener, closes the WAL and the access log, waits for
// the serve goroutine and deletes the server's files.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	<-s.errc
	err = errors.Join(err, s.db.CloseWAL(), s.logf.Close(), os.RemoveAll(s.dir))
	return err
}

// walBytes is the size of the server's WAL directory.
func (s *server) walBytes() (int64, error) {
	var n int64
	err := filepath.WalkDir(filepath.Join(s.dir, "wal"), func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		n += fi.Size()
		return nil
	})
	return n, err
}
