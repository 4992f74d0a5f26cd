package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"

	"pde/internal/oracle"
	"pde/internal/wire"
)

// pde2Conn is one pipelined PDE2 client connection. wire.Conn binds it;
// frames are then written and read with the wire package's exported
// framing functions, because the open-loop generator needs each frame's
// own completion time, which wire.Pipeline only reports per Wait.
type pde2Conn struct {
	nc   net.Conn
	bw   *bufio.Writer
	br   *bufio.Reader
	corr uint64
	hdr  [wire.HeaderSize]byte
	wbuf []byte
	rbuf []byte
	out  []oracle.Answer
	// sentOrder lists the op indices written, in order, while recording.
	sentOrder   []int
	record      bool
	maxInflight int
}

func dialPDE2(addr, shard string, maxBatch int) (*pde2Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if _, _, err := wire.NewConn(nc).Bind(shard); err != nil {
		nc.Close()
		return nil, fmt.Errorf("bind %s: %w", shard, err)
	}
	return &pde2Conn{
		nc: nc, bw: bufio.NewWriterSize(nc, 64<<10), br: bufio.NewReaderSize(nc, 64<<10),
		corr: 1 << 20,
		wbuf: make([]byte, wire.HeaderSize+wire.QueryPayloadLen(maxBatch)),
		rbuf: make([]byte, wire.AnswersPayloadLen(maxBatch)),
		out:  make([]oracle.Answer, maxBatch),
	}, nil
}

func (c *pde2Conn) send(qs []oracle.Query) error {
	c.corr++
	plen := wire.QueryPayloadLen(len(qs))
	frame := c.wbuf[:wire.HeaderSize+plen]
	wire.PutHeader(frame, wire.FrameEstimate, c.corr, plen)
	wire.PutQueryPayload(frame[wire.HeaderSize:], qs)
	if _, err := c.bw.Write(frame); err != nil {
		return err
	}
	return c.bw.Flush()
}

// recv reads the next answer frame into c.out. A remote per-frame error
// is returned with fatal false; anything that breaks the stream is
// fatal.
func (c *pde2Conn) recv() (fp uint64, n int, err error, fatal bool) {
	if _, err := io.ReadFull(c.br, c.hdr[:]); err != nil {
		return 0, 0, err, true
	}
	t, _, plen, err := wire.ParseHeader(c.hdr[:])
	if err != nil {
		return 0, 0, err, true
	}
	if int(plen) > len(c.rbuf) {
		return 0, 0, wire.ErrFrameTooBig, true
	}
	payload := c.rbuf[:plen]
	if _, err := io.ReadFull(c.br, payload); err != nil {
		return 0, 0, err, true
	}
	if t == wire.FrameError {
		code, msg, perr := wire.ParseErrorPayload(payload)
		if perr != nil {
			return 0, 0, perr, true
		}
		re := &wire.RemoteError{Code: code, Message: msg}
		return 0, 0, re, re.Fatal()
	}
	if t != wire.FrameAnswers {
		return 0, 0, fmt.Errorf("unexpected %v frame", t), true
	}
	fp, n, err = wire.CheckAnswersPayload(payload)
	if err != nil {
		return 0, 0, err, true
	}
	for i := 0; i < n; i++ {
		if err := wire.AnswerAt(payload, i, &c.out[i]); err != nil {
			return 0, 0, err, true
		}
	}
	return fp, n, nil, false
}

// roundTrip sends one frame and waits for its answer.
func (c *pde2Conn) roundTrip(qs []oracle.Query) error {
	if err := c.send(qs); err != nil {
		return err
	}
	_, _, err, _ := c.recv()
	return err
}

// pde2Depth bounds the frames one connection keeps in flight; a writer
// that hits it waits, and the wait is charged to the frame's latency.
const pde2Depth = 4

// runPDE2 drives one open-loop phase over pipelined connections: per
// connection a writer sends each claimed frame when it is due and a
// reader completes frames in order. frame(i) names the pool frame op i
// sends; replies[i] receives what came back.
func (p *phase) runPDE2(conns []*pde2Conn, frames [][]oracle.Query, frame func(i int) int, replies []reply) {
	p.start = p.startSoon()
	var wg sync.WaitGroup
	for _, c := range conns {
		c.maxInflight = 0
		inflight := make(chan int, pde2Depth)
		wg.Add(2)
		go func(c *pde2Conn) {
			defer wg.Done()
			defer close(inflight)
			for {
				i, ok := p.claim()
				if !ok {
					return
				}
				inflight <- i
				if l := len(inflight); l > c.maxInflight {
					c.maxInflight = l
				}
				p.recs[i].sent = p.since()
				if c.record {
					c.sentOrder = append(c.sentOrder, i)
				}
				if err := c.send(frames[frame(i)]); err != nil {
					return
				}
			}
		}(c)
		go func(c *pde2Conn) {
			defer wg.Done()
			dead := false
			for i := range inflight {
				r := &p.recs[i]
				if dead {
					r.done = p.since()
					continue
				}
				fp, n, err, fatal := c.recv()
				r.done = p.since()
				if err != nil {
					dead = fatal
					continue
				}
				pool := frame(i)
				replies[i] = reply{kind: kEstimate, pool: int32(pool), fp: fp, hash: hashAnswers(c.out[:n]), got: true}
				r.ok = true
			}
		}(c)
	}
	wg.Wait()
}
