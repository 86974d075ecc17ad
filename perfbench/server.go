package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/service/wire"
)

// server accepts loopback connections, negotiates the binary protocol
// with wire.Hello/wire.Accept, and hands each session to wire.Serve —
// the session engine solversvc runs.
type server struct {
	ln     net.Listener
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

const serverBanner = "perfbench in-process solver service"

func startServer(svc *service.Service) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &server{ln: ln, cancel: cancel}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer conn.Close()
				serveConn(ctx, svc, conn)
			}()
		}
	}()
	return s, nil
}

func serveConn(ctx context.Context, svc *service.Service, conn net.Conn) {
	br := bufio.NewReader(conn)
	if _, err := fmt.Fprintln(conn, serverBanner); err != nil {
		return
	}
	line, err := br.ReadString('\n')
	if err != nil {
		return
	}
	maxVer, ok := wire.ParseHello(line)
	if !ok {
		fmt.Fprintln(conn, "err: this server speaks only the binary protocol")
		return
	}
	ver, _ := wire.Negotiate(maxVer)
	if _, err := fmt.Fprintln(conn, wire.Accept(ver)); err != nil {
		return
	}
	_ = wire.Serve(ctx, svc, conn, br, wire.ServeOptions{WriteTimeout: 10 * time.Second})
}

func (s *server) addr() string { return s.ln.Addr().String() }

// dial opens one negotiated client connection.
func (s *server) dial() (*wire.Client, error) {
	conn, err := net.Dial("tcp", s.addr())
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	cli, err := wire.Handshake(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return cli, nil
}

// close stops accepting, ends every session and returns once the accept
// loop and all session goroutines have exited.
func (s *server) close() {
	s.cancel()
	s.ln.Close()
	s.wg.Wait()
}
