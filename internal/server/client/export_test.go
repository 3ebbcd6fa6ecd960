package client

// ConnOf returns the connection a pooled handle holds, or nil after Release.
func ConnOf(h *PooledConn) *Conn {
	if h.released {
		return nil
	}
	return h.pc.conn
}
