"""Crafted assembly programs that several test modules share."""

#: Reads and stores back its own text, and takes a conditional branch
#: to the next instruction, whose redirect shows in timing only.
SELF_READING = """
main:   la $t0, main
        lw $t1, 4($t0)
        sw $t1, 4($t0)
        lb $t2, 8($t0)
        li $t3, 5
loop:   addi $t3, $t3, -1
        beq $zero, $zero, next
next:   bne $t3, $zero, loop
        lw $t4, 0($t0)
        mult $t4, $t3
        mflo $a0
        li $v0, 1
        syscall
        li $v0, 10
        syscall
"""
